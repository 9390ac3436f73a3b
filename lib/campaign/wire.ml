(* Wire codecs for process-isolated campaign execution.

   The subprocess executor ships jobs to forked workers and results
   back over pipes, and the write-ahead journal persists completed
   results between runs.  Both speak the same currency: the exact JSON
   the deterministic reports are built from, so a result that
   round-trips through a worker pipe or a journal line is
   field-for-field identical to one produced in-process — the
   byte-identity guarantees of the report depend on it.

   This module holds the generic halves: decoding the shared
   observability records (checker snapshots, metrics snapshots, kernel
   diagnoses — the emitters live in [Tabv_core.Report_json] and
   [Tabv_fault.Fault]).  The length-prefixed frames are
   [Tabv_core.Frame]'s.  Campaign- and qualify-specific payload codecs
   live next to their types in [Campaign] and [Qualify]. *)

module J = Tabv_core.Report_json
module Snapshot = Tabv_obs.Checker_snapshot
module Metrics = Tabv_obs.Metrics
module Kernel = Tabv_sim.Kernel

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let open_assoc what = function
  | J.Assoc fields -> Ok fields
  | _ -> Error (what ^ ": expected an object")

let open_list what = function
  | J.List items -> Ok items
  | _ -> Error (what ^ ": expected an array")

let field what key fields =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing key %S" what key)

let int_field what key fields =
  let* v = field what key fields in
  match v with
  | J.Int n -> Ok n
  | _ -> Error (Printf.sprintf "%s: key %S must be an integer" what key)

let string_field what key fields =
  let* v = field what key fields in
  match v with
  | J.String s -> Ok s
  | _ -> Error (Printf.sprintf "%s: key %S must be a string" what key)

let bool_field what key fields =
  let* v = field what key fields in
  match v with
  | J.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s: key %S must be a boolean" what key)

(* --- checker snapshots ---------------------------------------------- *)

(* Inverse of {!Tabv_core.Report_json.checker_snapshot_json}.  The
   emitted failure entries carry only the two instants; the property
   name is reattached from the enclosing snapshot.  The derived
   ["cache_hit_rate"] float is ignored (it is recomputed from the
   integer fields on re-emission, so nothing lossy crosses the wire). *)
let checker_snapshot_of_json json =
  let what = "checker snapshot" in
  let* fields = open_assoc what json in
  let* property_name = string_field what "property" fields in
  let* engine = string_field what "engine" fields in
  let* activations = int_field what "activations" fields in
  let* passes = int_field what "passes" fields in
  let* trivial_passes = int_field what "trivial_passes" fields in
  let* vacuous = bool_field what "vacuous" fields in
  let* peak_instances = int_field what "peak_instances" fields in
  let* peak_distinct_states = int_field what "peak_distinct_states" fields in
  let* pending = int_field what "pending" fields in
  let* steps = int_field what "steps" fields in
  let* cache_hits = int_field what "cache_hits" fields in
  let* cache_misses = int_field what "cache_misses" fields in
  let* failure_items =
    let* v = field what "failures" fields in
    open_list (what ^ ".failures") v
  in
  let* failures =
    map_result
      (fun item ->
        let what = what ^ ".failure" in
        let* fields = open_assoc what item in
        let* activation_time = int_field what "activation_time_ns" fields in
        let* failure_time = int_field what "failure_time_ns" fields in
        Ok { Snapshot.property_name; activation_time; failure_time })
      failure_items
  in
  Ok
    {
      Snapshot.property_name;
      engine;
      activations;
      passes;
      trivial_passes;
      vacuous;
      peak_instances;
      peak_distinct_states;
      pending;
      steps;
      cache_hits;
      cache_misses;
      failures;
    }

(* --- metrics snapshots ---------------------------------------------- *)

(* Inverse of {!Tabv_core.Report_json.metrics_snapshot_json}. *)
let metrics_value_of_json json =
  let what = "metrics value" in
  let* fields = open_assoc what json in
  let* kind = string_field what "kind" fields in
  match kind with
  | "counter" ->
    let* v = int_field what "value" fields in
    Ok (Metrics.Counter v)
  | "gauge" ->
    let* v = int_field what "value" fields in
    Ok (Metrics.Gauge v)
  | "histogram" ->
    let* count = int_field what "count" fields in
    let* sum = int_field what "sum" fields in
    let* min_value = int_field what "min" fields in
    let* max_value = int_field what "max" fields in
    let* bucket_items =
      let* v = field what "buckets" fields in
      open_list (what ^ ".buckets") v
    in
    let* by_upper_bound =
      map_result
        (fun item ->
          let what = what ^ ".bucket" in
          let* fields = open_assoc what item in
          let* le = int_field what "le" fields in
          let* n = int_field what "count" fields in
          Ok (le, n))
        bucket_items
    in
    Ok (Metrics.Histogram { Metrics.count; sum; min_value; max_value; by_upper_bound })
  | other -> Error (Printf.sprintf "%s: unknown kind %S" what other)

let metrics_snapshot_of_json json =
  let* fields = open_assoc "metrics snapshot" json in
  map_result
    (fun (name, v) ->
      let* value = metrics_value_of_json v in
      Ok (name, value))
    fields

(* --- kernel diagnoses ----------------------------------------------- *)

(* Inverse of {!Tabv_fault.Fault.diagnosis_json}. *)
let diagnosis_of_json json =
  let what = "diagnosis" in
  let* fields = open_assoc what json in
  let* kind = string_field what "kind" fields in
  match kind with
  | "completed" -> Ok Kernel.Completed
  | "starved" ->
    let* waiting = int_field what "waiting" fields in
    Ok (Kernel.Starved { waiting })
  | "livelock" ->
    let* time = int_field what "time" fields in
    let* delta_cycles = int_field what "delta_cycles" fields in
    Ok (Kernel.Livelock { time; delta_cycles })
  | "budget_exhausted" ->
    let* steps = int_field what "steps" fields in
    Ok (Kernel.Budget_exhausted { steps })
  | "process_crashed" ->
    let* name = string_field what "process" fields in
    let* error = string_field what "error" fields in
    Ok (Kernel.Process_crashed { name; error })
  | other -> Error (Printf.sprintf "%s: unknown kind %S" what other)
