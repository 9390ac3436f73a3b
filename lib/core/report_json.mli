(** Machine-readable (JSON) form of the methodology reports, for
    integration into verification flows and CI.

    The emitter is self-contained (no JSON library dependency) and
    produces deterministic, valid JSON: strings are escaped per RFC
    8259, keys appear in a fixed order. *)

(** Minimal JSON document model. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN/infinities print as [null] (RFC 8259) *)
  | String of string
  | List of json list
  | Assoc of (string * json) list

val to_string : json -> string

(** Raised by {!of_string} with 1-based position information. *)
exception Parse_error of { line : int; col : int; message : string }

(** Parse one RFC 8259 document (the inverse of {!to_string}, used for
    campaign manifests and read-back reports).  Numbers without
    fraction or exponent parse as [Int], all others as [Float].
    [\uXXXX] escapes are fully decoded to UTF-8, including
    supplementary-plane surrogate pairs ([😀] is the four
    UTF-8 bytes of U+1F600); unpaired surrogates are rejected.
    @raise Parse_error on malformed input. *)
val of_string : string -> json

(** [member key json] is the value of [key] when [json] is an [Assoc]
    containing it, [None] otherwise. *)
val member : string -> json -> json option

(** {2 Decoding helpers}

    A result-monad reader shared by every decoder of an emitted record.
    [what] names the record in the error text, e.g.
    ["checker snapshot: missing key \"steps\""]. *)

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
val open_assoc : string -> json -> ((string * json) list, string) result
val open_list : string -> json -> (json list, string) result
val field : string -> string -> (string * json) list -> (json, string) result
val int_field : string -> string -> (string * json) list -> (int, string) result
val string_field : string -> string -> (string * json) list -> (string, string) result
val bool_field : string -> string -> (string * json) list -> (bool, string) result

(** Per-property checker statistics as JSON, from the shared
    {!Tabv_obs.Checker_snapshot.t} record ([Monitor.snapshot] produces
    it directly); [cache_hit_rate] is derived. *)
val checker_snapshot_json : Tabv_obs.Checker_snapshot.t -> json

(** Inverse of {!checker_snapshot_json}.  The derived
    ["cache_hit_rate"] float is ignored (it is recomputed from the
    integer fields on re-emission, so nothing lossy crosses the
    wire). *)
val checker_snapshot_of_json : json -> (Tabv_obs.Checker_snapshot.t, string) result

(** The deterministic per-run verdict report shared by
    [tabv check --report-json], [tabv record --report-json] and
    [tabv recheck --report-json]:
    [{"schema":1,"run":{..},"properties":[..]}] with one verdict per
    property: the keys of {!checker_snapshot_json} minus the
    transition-memo counters ([cache_hits], [cache_misses],
    [cache_hit_rate]), which depend on what else shares the
    process-wide checker universe and would make reports diverge
    across worker counts.  The contract: re-checking a recorded trace
    — any worker count, either executor — must emit bytes identical to
    the live check of the same run. *)
val verdict_report_json :
  run:(string * json) list ->
  properties:Tabv_obs.Checker_snapshot.t list ->
  unit ->
  json

(** Process-global transition-memo statistics as JSON (the checker
    engine's [cache_stats] record, field by field). *)
val engine_cache_json :
  cache_hits:int ->
  cache_misses:int ->
  cache_bypassed:int ->
  distinct_states:int ->
  distinct_transitions:int ->
  interned_formulas:int ->
  unit ->
  json

(** A whole registry snapshot as one JSON object, preserving the
    snapshot's (sorted, deterministic) name order.  Each value is
    tagged: [{"kind":"counter","value":n}], [{"kind":"gauge","value":n}],
    or a histogram object with [count]/[sum]/[min]/[max] and
    cumulative-free per-bucket [{"le":bound,"count":n}] entries. *)
val metrics_snapshot_json : (string * Tabv_obs.Metrics.value) list -> json

(** Inverse of {!metrics_snapshot_json}. *)
val metrics_snapshot_of_json :
  json -> ((string * Tabv_obs.Metrics.value) list, string) result

(** Version stamped into the ["schema"] key of {!metrics_json}. *)
val metrics_schema_version : int

(** The versioned observability document emitted by
    [tabv check --metrics-json]:
    [{"schema":1,"run":{..},"metrics":{..},"properties":[..],"engine":{..}}].
    [run] is caller-supplied run identification (model, seed,
    simulated time, operation counts), [metrics] a registry snapshot,
    [properties] per-property {!checker_snapshot_json} documents and
    [engine] the {!engine_cache_json} document.  Every value is
    derived from simulation state — never wall-clock — so the document
    is byte-identical across runs with the same seed. *)
val metrics_json :
  run:(string * json) list ->
  metrics:(string * Tabv_obs.Metrics.value) list ->
  properties:json list ->
  engine:json ->
  unit ->
  json

(** A whole property set's reports: [{"clock_period": ..,
    "abstracted_signals": [..], "properties": [..]}], one object per
    report with its input/output properties (printed in the property
    language), pipeline stages, applied Fig. 4 rules, substitutions
    and review flags. *)
val of_reports : Methodology.report list -> json
