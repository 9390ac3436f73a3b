open Tabv_psl

(** Streaming binary trace writer.

    Create one per recorded run, {!bind} the model's signal table, feed
    it {!record}/{!span} calls from the trace tap (which samples
    exactly where the checker pools do), and {!close} it when the
    simulation ends.  A bound table's readers are read straight into
    the writer's slot array: a sample builds no list and compares no
    name.  {!sample} takes an environment list instead, for tools and
    tests; it validates the list and then admits the sample through
    the same code.  Memory is O(signal count) plus one staging buffer:
    three reused value arrays (the sample being admitted, at most one
    pending sample, and the previous valuation, for change masks) and
    at most one chunk of encoded records.

    Same-instant samples overwrite each other (last-wins): a TLM run
    may complete several transactions in one instant and checkers
    observe the final environment of the instant.  The pending sample is what makes
    this streamable — a sample is only encoded once a strictly later
    one (or {!close}) proves it final.

    Every record is encoded as one CRC32-framed block into a staging
    buffer, which goes to the file through {!Tabv_core.Io} once about
    64 KiB are staged — one [write(2)], and one write decision under
    the [Fault.Io] hook, per chunk — and at {!close}, which then
    fsyncs before releasing the file.  Every chunk ends on a record
    boundary, so a file cut anywhere is a CRC-verified prefix of whole
    records; a crash mid-run loses at most the records still staged. *)
type t

(** [create ~path meta] opens [path] for writing and stages the magic
    and the meta header.
    @raise Tabv_core.Io.Io_error when the file cannot be created. *)
val create : path:string -> Meta.t -> t

(** [bind t signals] fixes the signal names and their order to
    [signals]' and keeps its readers for {!record}.  The dictionary is
    written at the first sample, which also fixes each signal's
    bool/int kind.
    @raise Invalid_argument when names are already bound (by {!bind}
    or a first {!sample}). *)
val bind : t -> (string * (unit -> Expr.value)) list -> unit

(** [record t ~time] reads every bound reader, in order, into the
    sample at [time].
    @raise Invalid_argument when no table is bound, on time going
    backwards, or a value changing kind.
    @raise Tabv_core.Io.Io_error when a full chunk cannot be written. *)
val record : t -> time:int -> unit

(** Record the full environment at [time], as a list.  The first
    sample fixes the signal names unless a table is bound; every
    sample must present the same signals in the same order.
    @raise Invalid_argument on time going backwards, a dictionary
    mismatch, or a value changing kind.
    @raise Tabv_core.Io.Io_error when a full chunk cannot be written. *)
val sample : t -> time:int -> (string * Expr.value) list -> unit

(** Record one completed transaction span.
    @raise Invalid_argument if [end_time < start_time].
    @raise Tabv_core.Io.Io_error when a full chunk cannot be written. *)
val span : t -> label:string -> start_time:int -> end_time:int -> unit

(** Samples committed so far (the pending one counts). *)
val samples : t -> int

val spans : t -> int

(** Bytes encoded so far, staged or written (header included; pending
    sample excluded).  After {!close} it is the file size. *)
val bytes_written : t -> int

(** Flush the pending sample, write the end record (sample/span
    totals — the reader's truncation check) and everything staged,
    fsync and close the file.  Idempotent.  On failure the descriptor
    is released and the error re-raised.
    @raise Tabv_core.Io.Io_error when a write, the fsync or the close
    fails. *)
val close : t -> unit

(** [protect writer f] runs [f ()], then {!close}s [writer] (if any).
    When [f] raises, the writer is released quietly instead — the
    whole records staged so far are written best-effort, with no end
    record, so the file is a torn trace the reader refuses — and
    [f]'s exception escapes, never one from the release.  A failing
    {!close} after a normal return raises its own [Io_error]. *)
val protect : t option -> (unit -> 'a) -> 'a

(** [with_file ~path meta f] = {!create}, then [protect] [f]. *)
val with_file : path:string -> Meta.t -> (t -> 'a) -> 'a
