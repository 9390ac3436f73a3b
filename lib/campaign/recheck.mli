open Tabv_psl

(** Offline parallel re-checking of stored traces.

    Simulate once ([tabv record]), check many: an arbitrary property
    set is replayed against a recorded binary trace through the shared
    campaign executors — worker domains in-process or crash-isolated
    worker subprocesses — with the property set split into contiguous
    per-worker chunks.  Each chunk streams the trace independently
    through [Offline.over_seq] (bounded memory) with a fresh checker
    universe, so the merged per-property verdicts are
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

(** Replay [properties] over the trace in one pass in this domain
    (fresh checker universe first).  Returns (samples, spans,
    snapshots).  The building block both executors run.
    @raise Tabv_trace.Reader.Format_error on a damaged file. *)
val exec_chunk :
  trace:string ->
  properties:Property.t list ->
  int * int * Tabv_obs.Checker_snapshot.t list

(** The [ok] reply payload for one executed chunk (what the subprocess
    worker sends back; the inverse of the executor's [decode]). *)
val payload_json :
  int * int * Tabv_obs.Checker_snapshot.t list -> Tabv_core.Report_json.json

(** Open the trace, decode the header and scan just far enough to know
    the signal dictionary (first sample record): [(meta, signals)].
    The CLI's fingerprint/lint gate.
    @raise Tabv_trace.Reader.Format_error like {!Tabv_trace.Reader}. *)
val probe : string -> Tabv_trace.Meta.t * string list

(** [run ?exec ?interrupted ~workers ~retries ~trace properties]
    re-checks the property set against the stored trace.  One
    in-domain chunk opens the trace once; a pooled run {!probe}s it
    before any worker starts, then each chunk opens it again.
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
