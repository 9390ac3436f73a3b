(** Hash-consed (interned) LTL terms.

    Structurally equal formulas share one heap node, so {!equal} is
    physical equality (O(1)), every node has a dense unique {!id}
    usable as a hash-table key, and its hash is computed once per
    distinct term.

    The intern table is domain-local ([Domain.DLS]) and append-only:
    ids are stable for the lifetime of the owning domain.  This is
    what makes the checker's [(state, dt, atom valuation) -> state]
    transition memo sound — a state id observed once always denotes
    the same formula.

    {b Domain safety.} Each domain owns a private interning universe
    (table, id counter, and the scratch slots of the nodes it
    creates), so concurrent workers may intern and progress formulas
    without synchronization.  Terms must not be shared across domains:
    {!equal} is physical equality within one universe only, and the
    {!set_sample} scratch slot is single-writer by the confinement of
    its node to the interning domain. *)

type t = private {
  node : node;
  id : int;  (** dense unique id *)
  hkey : int;  (** precomputed hash *)
  mutable sample_stamp : int;  (** see {!set_sample} *)
  mutable sample_value : bool;
}

and node =
  | Atom of Expr.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next_n of int * t
  | Next_event of Ltl.next_event * t
  | Until of t * t
  | Release of t * t
  | Always of t
  | Eventually of t

(** {2 Smart constructors} *)

val atom : Expr.t -> t

(** [tt ()] / [ff ()] intern the boolean constants in the calling
    domain's universe (functions, not values, so one domain's node —
    and its mutable scratch slot — never leaks into another). *)
val tt : unit -> t

val ff : unit -> t
val implies : t -> t -> t

(** Collapses nested next chains like {!Ltl.next_n}; [next_n 0 p = p]. *)
val next_n : int -> t -> t

val next_event : Ltl.next_event -> t -> t
val until : t -> t -> t
val release : t -> t -> t
val always : t -> t
val eventually : t -> t

(** {2 Conversion} *)

(** Node-for-node faithful interning: [to_ltl (intern f)] is
    structurally equal to [f]. *)
val intern : Ltl.t -> t

val to_ltl : t -> Ltl.t

(** {2 Accessors} *)

val id : t -> int
val hash : t -> int

(** Physical equality — O(1) thanks to hash-consing. *)
val equal : t -> t -> bool

(** Total order on unique ids (creation order, not structural). *)
val compare : t -> t -> int

val node : t -> node
val is_nnf : t -> bool

(** Number of distinct terms interned so far in the calling domain's
    universe. *)
val node_count : unit -> int

(** Replace the calling domain's interning universe with a fresh,
    empty one.  Terms interned before the reset stay structurally
    valid but are no longer canonical: a subsequent {!intern} of an
    equal formula yields a {e different} node, so never mix terms from
    across a reset.  Intended for batch runners (the campaign runner
    resets between jobs so per-job statistics are independent of job
    placement); must only be called when no obligations or monitors
    built from the old universe are still stepped. *)
val reset_universe : unit -> unit

(** {2 Per-instant scratch slot}

    A single cached boolean per node, tagged with an opaque
    caller-owned stamp; external per-instant caches (the checker's
    sampler) use it to answer "value of this atom at the current
    instant" with one load and one compare instead of a hashtable
    probe.  Callers must use globally unique stamps per (cache,
    instant) pair; a mismatched stamp simply means "not cached".
    Nodes start with a stamp no caller can own ([min_int]). *)

val sample_stamp : t -> int

val sample_value : t -> bool
val set_sample : t -> stamp:int -> value:bool -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
