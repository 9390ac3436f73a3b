(** A named property: a formula together with its evaluation context. *)

type t = {
  name : string;
  formula : Ltl.t;
  context : Context.t;
}

val make : name:string -> ?context:Context.t -> Ltl.t -> t
(** [make ~name f] defaults the context to the implicit clock context
    [true] ([Context.Clock Base_clock]). *)

val equal : t -> t -> bool

(** Sorted, duplicate-free signals of formula and context combined. *)
val signals : t -> string list

(** Signals the property mentions that are not in [known] — a lint for
    typos against a model's interface. *)
val unknown_signals : known:string list -> t -> string list

(** Sorted, duplicate-free signals some of [properties] mention that
    are not in [known]: what a model or a recording lacks for checking
    them. *)
val missing_signals : known:string list -> t list -> string list

(** True iff the property carries an RTL clock context. *)
val is_rtl : t -> bool

(** True iff the property carries a TLM transaction context. *)
val is_tlm : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
