(** Run-identification header of a trace file.

    The tuple identifies the exact simulation that produced the
    evaluation points: the DUV model and abstraction level (the
    [model] name, e.g. ["des56-tlm-at"]), the seeded workload and its
    size, and the simulation kernel engine.  Offline re-checking
    reports stamp these fields into their ["run"] section, which is
    what makes a recheck report byte-comparable to the live check of
    the same run. *)
type t = {
  model : string;  (** CLI model name (DUV + abstraction level) *)
  seed : int;  (** workload seed *)
  ops : int;  (** workload size (operations / pixels) *)
  engine : string;  (** simulation kernel engine name *)
}

(** [make ~model ~seed ~ops] — the header of a run recorded now, with
    [engine = "classic"], the one simulation engine.  Traces recorded
    under the since-removed ["compiled"] engine read and recheck the
    same way. *)
val make : model:string -> seed:int -> ops:int -> t

val equal : t -> t -> bool

(** Stable hex digest of the tuple (plus the format version) — the
    trace fingerprint quoted by mismatch diagnostics. *)
val fingerprint : t -> string

(** ["des56-rtl seed=42 ops=200 engine=classic (fingerprint ...)"] *)
val pp : Format.formatter -> t -> unit
