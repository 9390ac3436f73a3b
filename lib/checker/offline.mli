open Tabv_psl

(** Offline checking over stored evaluation traces.

    A property list is checked by a pool of one fresh {!Monitor} per
    property, all sharing one {!Sampler} (each distinct atom is
    evaluated once per sample across the pool).  Each sample is
    stepped exactly as {!Checker.attach}'s live pool steps an instant,
    by one step shared by every path here: when the sample changed a
    value, the sampler is primed once ({!Sampler.prime_valuation});
    otherwise the previous valuation stands, unprimed.  Then every
    monitor advances in property order ({!Monitor.advance}), replaying
    its last step when that step changed nothing but counters and the
    atoms it read hold the same values again.  Span entries are
    ignored.

    The monitors end with the counters and verdicts of a pool taking a
    real {!Monitor.step} at every sample. *)

(** [over_reader properties reader] checks [properties] over the
    trace [reader] streams: it reads the signal dictionary
    ({!Tabv_trace.Reader.dictionary}), compiles each atom once against
    the dictionary slots of {!Tabv_trace.Reader.values}, then steps
    the reader ({!Tabv_trace.Reader.step}) to the end.  A sample with
    an all-zero change mask counts as unchanged.  Returns the monitors
    in property order.
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val over_reader : Property.t list -> Tabv_trace.Reader.t -> Monitor.t list

(** Streaming {!over_reader} over the file: the whole trace is never
    materialized.
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val over_file : Property.t list -> string -> Monitor.t list

(** [over_seq properties entries] checks [properties] over in-memory
    entries, in order, reading each sample's env by name.  A sample
    whose env is physically the previous sample's changed nothing.
    Sample times must be strictly increasing. *)
val over_seq : Property.t list -> Tabv_trace.Entry.t Seq.t -> Monitor.t list

val over_trace : Property.t list -> Trace.t -> Monitor.t list

(** {!Monitor.snapshot} of each monitor, in order, ready for
    reporting. *)
val snapshots : Monitor.t list -> Tabv_obs.Checker_snapshot.t list
