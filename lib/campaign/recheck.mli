open Tabv_psl

(** Offline parallel re-checking of stored traces.

    Simulate once ([tabv record]), check many: an arbitrary property
    set is replayed against a recorded binary trace through the shared
    campaign executors — worker domains in-process or crash-isolated
    worker subprocesses — with the property set split into contiguous
    per-worker chunks.  Each chunk steps the trace's reader
    independently through [Offline.over_reader] (bounded memory, atoms
    read from the dictionary slots) with a fresh checker universe, so the merged per-property verdicts are
    byte-identical for any worker count and either executor — and to
    the live check of the same run. *)

type result = {
  meta : Tabv_trace.Meta.t;
  snapshots : Tabv_obs.Checker_snapshot.t list;
      (** per-property counters, in input property order *)
  samples : int;  (** evaluation points replayed *)
  spans : int;
}

(** A chunk died (worker crash / undecodable reply); carries the
    executor's failure description. *)
exception Chunk_failed of string

(** The re-parseable property-language line for one property (what the
    subprocess request carries; [Parser.file] reads it back). *)
val property_source : Property.t -> string

(** One chunk of a pooled recheck: a trace path and a contiguous
    slice of the property set. *)
type chunk

(** Replays a chunk's properties over its trace in one pass, from a
    fresh checker universe; the result is (samples, spans,
    snapshots).  Properties travel as {!property_source} lines. *)
val op :
  (chunk, int * int * Tabv_obs.Checker_snapshot.t list) Executor.op

(** [run_validated ?exec ?interrupted ~retries ~trace plan] opens
    [trace] once and decodes its header and signal dictionary
    ({!Tabv_trace.Reader.dictionary}: spans before it are verified on
    the way, the first sample is not consumed).  [plan meta signals]
    then judges the recording — the CLI's and the daemon's model and
    signal gate — and returns the worker count and the properties to
    re-check, or refuses.  A refusal closes the trace and is returned
    as is.  One in-domain chunk steps the same reader; a pooled run
    closes it (its probe, run before any worker starts) and every
    chunk opens the trace again.  A trace that records no signal is
    verified to its end before [plan] sees it, and is re-checked from
    a second open.
    @raise Chunk_failed when a chunk fails after its retries.
    @raise Invalid_argument when the planned worker count is below 1
    or [retries < 0].
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val run_validated :
  ?exec:Executor.config ->
  ?interrupted:(unit -> bool) ->
  retries:int ->
  trace:string ->
  (Tabv_trace.Meta.t -> string list -> (int * Property.t list, 'e) Stdlib.result) ->
  (result, 'e) Stdlib.result

(** [plan ~trace ~props ~workers] — the admission policy of a recheck,
    for {!run_validated}, shared by [tabv recheck] and the serve
    daemon.  It refuses, in order: a trace recorded from a model the
    catalog does not know; user properties naming signals the model
    lacks ({!Tabv_duv.Models.user_properties}); properties that need
    the full-grid wrapper; an empty property set; properties sampling
    a signal the trace does not record; and a worker count below 1
    ({!Executor.workers}, capped by the property count). *)
val plan :
  trace:string ->
  props:Tabv_duv.Models.props ->
  workers:int option ->
  Tabv_trace.Meta.t ->
  string list ->
  (int * Property.t list, string) Stdlib.result

(** [run ?exec ?interrupted ~workers ~retries ~trace properties]
    re-checks the property set against the stored trace: a
    {!run_validated} whose plan accepts every recording.
    @raise Chunk_failed when a chunk fails after its retries.
    @raise Invalid_argument when [workers < 1] or [retries < 0].
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val run :
  ?exec:Executor.config ->
  ?interrupted:(unit -> bool) ->
  workers:int ->
  retries:int ->
  trace:string ->
  Property.t list ->
  result

(** The deterministic verdict report
    ({!Tabv_core.Report_json.verdict_report_json}) with the run
    section taken from the trace meta — byte-identical to the live
    [tabv check --report-json] of the recorded run. *)
val report_json : result -> Tabv_core.Report_json.json

val total_failures : result -> int
