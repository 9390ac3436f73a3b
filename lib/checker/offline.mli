open Tabv_psl

(** Offline checking over stored evaluation traces.

    A property list is checked by a pool of one fresh {!Monitor} per
    property, all sharing one {!Sampler} bound to the current sample's
    env (each distinct atom is evaluated once per sample across the
    pool).  Each sample is stepped exactly as {!Checker.attach}'s live
    pool steps an instant: the sampler is primed once
    ({!Sampler.prime_valuation}), then every monitor advances in
    property order ({!Monitor.advance}), replaying its last step when
    that step changed nothing but counters and the atoms it read hold
    the same values again.  A sample that re-emits the previous
    sample's env — the same list, physically, as {!Tabv_trace.Reader}
    hands back for a sample with no changes — reuses the previous
    valuation without priming.  Span entries are ignored.

    The monitors end with the counters and verdicts of a pool taking a
    real {!Monitor.step} at every sample. *)

(** [over_seq properties entries] checks [properties] over the entries
    in order and returns their monitors, in property order.  Sample
    times must be strictly increasing. *)
val over_seq : Property.t list -> Tabv_trace.Entry.t Seq.t -> Monitor.t list

val over_trace : Property.t list -> Trace.t -> Monitor.t list

(** Streaming: the whole file is never materialized.
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val over_file : Property.t list -> string -> Monitor.t list

(** {!Monitor.snapshot} of each monitor, in order, ready for
    reporting. *)
val snapshots : Monitor.t list -> Tabv_obs.Checker_snapshot.t list
