(* Multicore verification-campaign runner.

   One campaign = the paper's evaluation matrix as data: every job
   names a DUV, an abstraction level, a workload (seed, size) and a
   property selection, and the jobs execute on a pluggable
   {!Executor} — the in-domain pool of spawned domains, or a pool of
   crash-isolated worker subprocesses.  See campaign.mli for the
   determinism contracts; the short version is that every job starts
   from a fresh checker universe, a job's result is a pure function of
   its spec, and everything reported in JSON is simulation-derived (no
   wall clock, no worker count, no executor kind). *)

open Tabv_checker
open Tabv_duv
module J = Tabv_core.Report_json

(* --- job model ------------------------------------------------------ *)

type selection =
  | All
  | Take of int
  | No_checkers

type chaos_kind =
  | Chaos_raise
  | Chaos_hard of Tabv_fault.Fault.hard_failure

type job = {
  duv : Models.duv;
  level : Models.level;
  seed : int;
  ops : int;
  selection : selection;
  chaos : int;
  chaos_kind : chaos_kind;
}

let job ?(selection = All) ?(chaos = 0) ?(chaos_kind = Chaos_raise) ~duv ~level
    ~seed ~ops () =
  { duv; level; seed; ops; selection; chaos; chaos_kind }

let selection_name = function
  | All -> "all"
  | Take n -> string_of_int n
  | No_checkers -> "none"

let chaos_kind_name = function
  | Chaos_raise -> "raise"
  | Chaos_hard f -> Tabv_fault.Fault.hard_failure_name f

let selection_of_name = function
  | "all" -> Some All
  | "none" -> Some No_checkers
  | s ->
    (match int_of_string_opt s with
     | Some n when n >= 0 -> Some (Take n)
     | Some _ | None -> None)

let chaos_kind_of_name = function
  | "raise" -> Some Chaos_raise
  | s -> Option.map (fun f -> Chaos_hard f) (Tabv_fault.Fault.hard_failure_of_name s)

let job_name job =
  Printf.sprintf "%s/%s seed=%d ops=%d props=%s" (Models.duv_name job.duv)
    (Models.level_name job.level) job.seed job.ops (selection_name job.selection)

let validate job =
  match Models.of_duv_level job.duv job.level with
  | None ->
    Error
      (Printf.sprintf "%s: loosely-timed level exists only for des56"
         (job_name job))
  | Some _ -> (
    match Models.check_ops job.ops with
    | Error msg -> Error (job_name job ^ ": " ^ msg)
    | Ok () when job.seed < 0 -> Error (job_name job ^ ": seed must be >= 0")
    | Ok () when job.chaos < 0 -> Error (job_name job ^ ": chaos must be >= 0")
    | Ok () -> Ok ())

let expand_matrix ?(selection = All) ~duvs ~levels ~seeds ~ops () =
  List.concat_map
    (fun duv ->
      List.concat_map
        (fun level ->
          if Models.of_duv_level duv level = None then []
          else
            List.map
              (fun seed ->
                { duv; level; seed; ops; selection; chaos = 0;
                  chaos_kind = Chaos_raise })
              seeds)
        levels)
    duvs

(* --- manifests ------------------------------------------------------ *)

type manifest = {
  manifest_jobs : job list;
  manifest_retries : int option;
}

(* Small result-monad helpers for manifest decoding. *)
let ( let* ) r f = Result.bind r f

let open_int what = function
  | J.Int n -> Ok n
  | _ -> Error (what ^ ": expected an integer")

let open_string what = function
  | J.String s -> Ok s
  | _ -> Error (what ^ ": expected a string")

let check_keys what allowed fields =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
  | Some (k, _) -> Error (Printf.sprintf "%s: unknown key %S" what k)
  | None -> Ok ()

let selection_of_json what = function
  | J.String s ->
    (match selection_of_name s with
     | Some sel -> Ok sel
     | None ->
       Error (Printf.sprintf "%s: props must be \"all\", \"none\" or n" what))
  | J.Int n when n >= 0 -> Ok (Take n)
  | _ -> Error (Printf.sprintf "%s: props must be \"all\", \"none\" or n" what)

let job_of_json_what what json =
  let* fields = J.open_assoc what json in
  let* () =
    check_keys what
      [ "duv"; "level"; "seed"; "ops"; "props"; "chaos"; "chaos_kind" ]
      fields
  in
  let field key = List.assoc_opt key fields in
  let* duv =
    match field "duv" with
    | None -> Error (what ^ ": missing \"duv\"")
    | Some v ->
      let* name = open_string (what ^ ".duv") v in
      (match Models.duv_of_name name with
       | Some duv -> Ok duv
       | None -> Error (Printf.sprintf "%s: unknown duv %S" what name))
  in
  let* level =
    match field "level" with
    | None -> Error (what ^ ": missing \"level\"")
    | Some v ->
      let* name = open_string (what ^ ".level") v in
      (match Models.level_of_name name with
       | Some level -> Ok level
       | None -> Error (Printf.sprintf "%s: unknown level %S" what name))
  in
  let* seed =
    match field "seed" with
    | None -> Ok 0
    | Some v -> open_int (what ^ ".seed") v
  in
  let* ops =
    match field "ops" with
    | None -> Error (what ^ ": missing \"ops\"")
    | Some v -> open_int (what ^ ".ops") v
  in
  let* selection =
    match field "props" with
    | None -> Ok All
    | Some v -> selection_of_json what v
  in
  let* chaos =
    match field "chaos" with
    | None -> Ok 0
    | Some v -> open_int (what ^ ".chaos") v
  in
  let* chaos_kind =
    match field "chaos_kind" with
    | None -> Ok Chaos_raise
    | Some v ->
      let* name = open_string (what ^ ".chaos_kind") v in
      (match chaos_kind_of_name name with
       | Some k -> Ok k
       | None ->
         Error
           (Printf.sprintf
              "%s: chaos_kind must be \"raise\", \"abort\", \"alloc_storm\" or \
               \"busy_loop\" (got %S)"
              what name))
  in
  let job = { duv; level; seed; ops; selection; chaos; chaos_kind } in
  let* () = validate job in
  Ok job

let job_of_json index json =
  job_of_json_what (Printf.sprintf "jobs[%d]" index) json

let job_spec_of_json json = job_of_json_what "job" json

(* Canonical job spec: the manifest-format object a worker request and
   the journal fingerprint are built from. *)
let job_spec_json job =
  J.Assoc
    ([ ("duv", J.String (Models.duv_name job.duv));
       ("level", J.String (Models.level_name job.level));
       ("seed", J.Int job.seed);
       ("ops", J.Int job.ops);
       ("props", J.String (selection_name job.selection));
       ("chaos", J.Int job.chaos) ]
    @
    match job.chaos_kind with
    | Chaos_raise -> []
    | Chaos_hard _ ->
      [ ("chaos_kind", J.String (chaos_kind_name job.chaos_kind)) ])

let matrix_of_json json =
  let what = "matrix" in
  let* fields = J.open_assoc what json in
  let* () = check_keys what [ "duvs"; "levels"; "seeds"; "ops"; "props" ] fields in
  let field key = List.assoc_opt key fields in
  let names what_key of_name = function
    | J.List items ->
      J.map_result
        (fun item ->
          let* name = open_string what_key item in
          match of_name name with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "%s: unknown value %S" what_key name))
        items
    | _ -> Error (what_key ^ ": expected an array of strings")
  in
  let* duvs =
    match field "duvs" with
    | None -> Error "matrix: missing \"duvs\""
    | Some v -> names "matrix.duvs" Models.duv_of_name v
  in
  let* levels =
    match field "levels" with
    | None -> Error "matrix: missing \"levels\""
    | Some v -> names "matrix.levels" Models.level_of_name v
  in
  let* seeds =
    match field "seeds" with
    | None -> Ok [ 0 ]
    | Some v ->
      let* items = J.open_list "matrix.seeds" v in
      J.map_result (open_int "matrix.seeds") items
  in
  let* ops =
    match field "ops" with
    | None -> Error "matrix: missing \"ops\""
    | Some v -> open_int "matrix.ops" v
  in
  let* selection =
    match field "props" with
    | None -> Ok All
    | Some v -> selection_of_json what v
  in
  let jobs = expand_matrix ~selection ~duvs ~levels ~seeds ~ops () in
  let* () =
    match List.find_map (fun j -> Result.fold ~ok:(fun () -> None) ~error:Option.some (validate j)) jobs with
    | Some e -> Error e
    | None -> Ok ()
  in
  Ok jobs

let manifest_of_json json =
  let* fields = J.open_assoc "manifest" json in
  let* () = check_keys "manifest" [ "retries"; "jobs"; "matrix" ] fields in
  let field key = List.assoc_opt key fields in
  let* manifest_retries =
    match field "retries" with
    | None -> Ok None
    | Some v ->
      let* n = open_int "retries" v in
      if n < 0 then Error "retries: must be >= 0" else Ok (Some n)
  in
  let* explicit =
    match field "jobs" with
    | None -> Ok []
    | Some v ->
      let* items = J.open_list "jobs" v in
      J.map_result (fun (i, j) -> job_of_json i j) (List.mapi (fun i j -> (i, j)) items)
  in
  let* expanded =
    match field "matrix" with
    | None -> Ok []
    | Some v -> matrix_of_json v
  in
  match explicit @ expanded with
  | [] -> Error "manifest: no jobs (provide \"jobs\" and/or \"matrix\")"
  | manifest_jobs -> Ok { manifest_jobs; manifest_retries }

(* --- single-job execution ------------------------------------------- *)

exception Chaos

let () =
  Printexc.register_printer (function
    | Chaos -> Some "chaos: injected crash"
    | _ -> None)

let select selection properties =
  match selection with
  | All -> properties
  | No_checkers -> []
  | Take n -> List.filteri (fun i _ -> i < n) properties

(* --- execution payloads --------------------------------------------- *)

(* Everything a completed job contributes to the report, and nothing
   else: the payload is the unit that crosses a worker pipe and lands
   in the journal, so a result is field-for-field identical whether it
   was produced in-process, in a subprocess, or replayed from disk. *)
type exec_payload = {
  p_sim_time_ns : int;
  p_kernel_activations : int;
  p_delta_cycles : int;
  p_transactions : int;
  p_completed_ops : int;
  p_checker_stats : Tabv_obs.Checker_snapshot.t list;
  p_metrics : Tabv_obs.Metrics.snapshot;
  p_diagnosis : Tabv_sim.Kernel.diagnosis;
}

let payload_of_run (r : Testbench.run_result) =
  {
    p_sim_time_ns = r.Testbench.sim_time_ns;
    p_kernel_activations = r.Testbench.kernel_activations;
    p_delta_cycles = r.Testbench.delta_cycles;
    p_transactions = r.Testbench.transactions;
    p_completed_ops = r.Testbench.completed_ops;
    p_checker_stats = r.Testbench.checker_stats;
    p_metrics = r.Testbench.metrics;
    p_diagnosis = r.Testbench.diagnosis;
  }

let payload_json p =
  J.Assoc
    [ ("sim_time_ns", J.Int p.p_sim_time_ns);
      ("kernel_activations", J.Int p.p_kernel_activations);
      ("delta_cycles", J.Int p.p_delta_cycles);
      ("transactions", J.Int p.p_transactions);
      ("completed_ops", J.Int p.p_completed_ops);
      ("diagnosis", Tabv_fault.Fault.diagnosis_json p.p_diagnosis);
      ("properties", J.List (List.map J.checker_snapshot_json p.p_checker_stats));
      ("metrics", J.metrics_snapshot_json p.p_metrics) ]

let payload_of_json json =
  let what = "job payload" in
  let* fields = J.open_assoc what json in
  let* p_sim_time_ns = J.int_field what "sim_time_ns" fields in
  let* p_kernel_activations = J.int_field what "kernel_activations" fields in
  let* p_delta_cycles = J.int_field what "delta_cycles" fields in
  let* p_transactions = J.int_field what "transactions" fields in
  let* p_completed_ops = J.int_field what "completed_ops" fields in
  let* p_diagnosis =
    let* v = J.field what "diagnosis" fields in
    Tabv_fault.Fault.diagnosis_of_json v
  in
  let* p_checker_stats =
    let* v = J.field what "properties" fields in
    let* items = J.open_list (what ^ ".properties") v in
    J.map_result J.checker_snapshot_of_json items
  in
  let* p_metrics =
    let* v = J.field what "metrics" fields in
    J.metrics_snapshot_of_json v
  in
  Ok
    {
      p_sim_time_ns;
      p_kernel_activations;
      p_delta_cycles;
      p_transactions;
      p_completed_ops;
      p_checker_stats;
      p_metrics;
      p_diagnosis;
    }

let exec_job job ~attempt =
  (* Fresh interning + obligation universes per attempt: job
     statistics become placement-independent (the determinism
     contract) and a crashed attempt's half-built tables are
     discarded rather than inherited by the retry. *)
  Progression.reset_universe ();
  if attempt <= job.chaos then begin
    match job.chaos_kind with
    | Chaos_raise -> raise Chaos
    | Chaos_hard failure -> Tabv_fault.Fault.execute_hard_failure failure
  end;
  (* [validate] has accepted every job that reaches a worker. *)
  let model = Option.get (Models.of_duv_level job.duv job.level) in
  let properties, grid_properties = Models.properties_for model None in
  payload_of_run
    (Models.run
       { Testbench.default with
         properties = select job.selection properties;
         grid_properties;
         metrics = Some (Tabv_obs.Metrics.create ~enabled:true ()) }
       model ~seed:job.seed ~ops:job.ops)

let op =
  { Executor.name = "campaign_job";
    spec = { to_json = job_spec_json; of_json = job_spec_of_json };
    run = exec_job;
    result = { to_json = payload_json; of_json = payload_of_json } }

(* --- results --------------------------------------------------------- *)

type outcome =
  | Completed
  | Crashed of { error : string }
  | Killed of { signal : int }
  | Timed_out

type job_result = {
  job_id : int;
  job : job;
  outcome : outcome;
  attempts : int;
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;
  completed_ops : int;
  failures : int;
  checker_stats : Tabv_obs.Checker_snapshot.t list;
  metrics : Tabv_obs.Metrics.snapshot;
  diagnosis : Tabv_sim.Kernel.diagnosis;
}

let result_of_payload ~job_id ~job ~attempts p =
  {
    job_id;
    job;
    outcome = Completed;
    attempts;
    sim_time_ns = p.p_sim_time_ns;
    kernel_activations = p.p_kernel_activations;
    delta_cycles = p.p_delta_cycles;
    transactions = p.p_transactions;
    completed_ops = p.p_completed_ops;
    failures = Tabv_obs.Checker_snapshot.total_failures p.p_checker_stats;
    checker_stats = p.p_checker_stats;
    metrics = p.p_metrics;
    diagnosis = p.p_diagnosis;
  }

let result_of_failure ~job_id ~job ~attempts failure =
  let outcome, name, error =
    match (failure : Executor.failure) with
    | Executor.Crashed { error } -> (Crashed { error }, "campaign-job", error)
    | Executor.Killed { signal } ->
      ( Killed { signal },
        "campaign-worker",
        Printf.sprintf "killed by signal %d" signal )
    | Executor.Timed_out ->
      (Timed_out, "campaign-worker", "wall-clock watchdog expired")
  in
  {
    job_id;
    job;
    outcome;
    attempts;
    sim_time_ns = 0;
    kernel_activations = 0;
    delta_cycles = 0;
    transactions = 0;
    completed_ops = 0;
    failures = 0;
    checker_stats = [];
    metrics = [];
    diagnosis = Tabv_sim.Kernel.Process_crashed { name; error };
  }

(* --- journal records ------------------------------------------------- *)

let journal_kind = "campaign"

let fingerprint ~retries jobs =
  Journal.fingerprint_of_string
    (J.to_string
       (J.Assoc
          [ ("kind", J.String journal_kind);
            ("retries", J.Int retries);
            ("jobs", J.List (List.map job_spec_json jobs)) ]))

type admitted = {
  jobs : job list;
  retries : int;
  fingerprint : string;
}

let admit ~retries manifest =
  match manifest.manifest_jobs with
  | [] -> Error "empty campaign (no jobs)"
  | jobs ->
    let* () =
      List.fold_left (fun acc job -> Result.bind acc (fun () -> validate job))
        (Ok ()) jobs
    in
    let retries =
      match (retries, manifest.manifest_retries) with
      | Some r, _ | None, Some r -> r
      | None, None -> 1
    in
    Ok { jobs; retries; fingerprint = fingerprint ~retries jobs }

(* --- the pool ------------------------------------------------------- *)

type summary = {
  results : job_result list;
  workers : int;
  retries : int;
  completed : int;
  crashed : int;
  killed : int;
  timed_out : int;
  replayed : int;
  pending : int;
  total_failures : int;
  total_sim_time_ns : int;
  total_activations : int;
  total_delta_cycles : int;
  total_transactions : int;
  total_completed_ops : int;
  checker_activations : int;
  checker_passes : int;
  checker_cache_hits : int;
  checker_cache_misses : int;
  failures_by_property : (string * int) list;
  merged_metrics : Tabv_obs.Metrics.snapshot;
  wall_seconds : float;
}

let summarize ~workers ~retries ~replayed ~pending ~wall_seconds results =
  let count p = List.length (List.filter p results) in
  let crashed = count (fun r -> match r.outcome with Crashed _ -> true | _ -> false) in
  let killed = count (fun r -> match r.outcome with Killed _ -> true | _ -> false) in
  let timed_out = count (fun r -> r.outcome = Timed_out) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let stat_sum f =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc s -> acc + f s) acc r.checker_stats)
      0 results
  in
  let failures_by_property =
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun (s : Tabv_obs.Checker_snapshot.t) ->
            let n = List.length s.failures in
            if n > 0 then
              Hashtbl.replace tbl s.property_name
                (n + Option.value ~default:0 (Hashtbl.find_opt tbl s.property_name)))
          r.checker_stats)
      results;
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    results;
    workers;
    retries;
    completed = List.length results - crashed - killed - timed_out;
    crashed;
    killed;
    timed_out;
    replayed;
    pending;
    total_failures = sum (fun r -> r.failures);
    total_sim_time_ns = sum (fun r -> r.sim_time_ns);
    total_activations = sum (fun r -> r.kernel_activations);
    total_delta_cycles = sum (fun r -> r.delta_cycles);
    total_transactions = sum (fun r -> r.transactions);
    total_completed_ops = sum (fun r -> r.completed_ops);
    checker_activations =
      stat_sum (fun (s : Tabv_obs.Checker_snapshot.t) -> s.activations);
    checker_passes = stat_sum (fun (s : Tabv_obs.Checker_snapshot.t) -> s.passes);
    checker_cache_hits =
      stat_sum (fun (s : Tabv_obs.Checker_snapshot.t) -> s.cache_hits);
    checker_cache_misses =
      stat_sum (fun (s : Tabv_obs.Checker_snapshot.t) -> s.cache_misses);
    failures_by_property;
    merged_metrics =
      Tabv_obs.Metrics.merge_all (List.map (fun r -> r.metrics) results);
    wall_seconds;
  }

let run ?(workers = 1) ?(retries = 1) ?(clock = fun () -> 0.)
    ?(exec = Executor.config Executor.In_domain) ?journal ?interrupted jobs =
  (match
     List.find_map
       (fun j -> Result.fold ~ok:(fun () -> None) ~error:Option.some (validate j))
       jobs
   with
   | Some reason -> invalid_arg ("Campaign.run: " ^ reason)
   | None -> ());
  if retries < 0 then invalid_arg "Campaign.run: retries must be >= 0";
  let t0 = clock () in
  let slots = Executor.run exec ~workers ~retries ?interrupted ?journal op jobs in
  let wall_seconds = clock () -. t0 in
  let pending = ref 0 and replayed = ref 0 in
  let results =
    List.mapi
      (fun job_id job ->
        match slots.(job_id) with
        | Some { Executor.attempts; outcome = Executor.Done payload; replayed = r } ->
          if r then incr replayed;
          Some (result_of_payload ~job_id ~job ~attempts payload)
        | Some { Executor.attempts; outcome = Executor.Failed failure; _ } ->
          Some (result_of_failure ~job_id ~job ~attempts failure)
        | None ->
          (* Interrupted before this job ran: no row at all — the job
             re-runs on [--resume]. *)
          incr pending;
          None)
      jobs
    |> List.filter_map Fun.id
  in
  summarize ~workers ~retries ~replayed:!replayed ~pending:!pending
    ~wall_seconds results

let all_green summary =
  summary.total_failures = 0
  && summary.crashed = 0
  && summary.killed = 0
  && summary.timed_out = 0
  && summary.pending = 0

(* --- deterministic report ------------------------------------------- *)

let campaign_schema_version = 1

let outcome_name = function
  | Completed -> "completed"
  | Crashed _ -> "crashed"
  | Killed _ -> "killed"
  | Timed_out -> "timed_out"

let job_json r =
  let open J in
  let base =
    [ ("id", Int r.job_id);
      ("duv", String (Models.duv_name r.job.duv));
      ("level", String (Models.level_name r.job.level));
      ("seed", Int r.job.seed);
      ("ops", Int r.job.ops);
      ("props", String (selection_name r.job.selection));
      ("outcome", String (outcome_name r.outcome));
      ("attempts", Int r.attempts) ]
  in
  let error =
    match r.outcome with
    | Completed -> []
    | Crashed { error } -> [ ("error", String error) ]
    | Killed { signal } ->
      [ ("error", String (Printf.sprintf "killed by signal %d" signal));
        ("signal", Int signal) ]
    | Timed_out -> [ ("error", String "wall-clock watchdog expired") ]
  in
  let body =
    match r.outcome with
    | Crashed _ | Killed _ | Timed_out -> []
    | Completed ->
      [ ("sim_time_ns", Int r.sim_time_ns);
        ("kernel_activations", Int r.kernel_activations);
        ("delta_cycles", Int r.delta_cycles);
        ("transactions", Int r.transactions);
        ("completed_ops", Int r.completed_ops);
        ("failures", Int r.failures);
        ("diagnosis", Tabv_fault.Fault.diagnosis_json r.diagnosis);
        ("properties", List (List.map checker_snapshot_json r.checker_stats));
        ("metrics", metrics_snapshot_json r.metrics) ]
  in
  Assoc (base @ error @ body)

let report_json summary =
  let open J in
  let cache_total = summary.checker_cache_hits + summary.checker_cache_misses in
  let cache_hit_rate =
    if cache_total = 0 then 0.
    else float_of_int summary.checker_cache_hits /. float_of_int cache_total
  in
  Assoc
    [ ("schema", Int campaign_schema_version);
      ( "campaign",
        Assoc
          [ ("jobs", Int (List.length summary.results));
            ("retries", Int summary.retries) ] );
      ("jobs", List (List.map job_json summary.results));
      ( "aggregate",
        Assoc
          [ ("completed", Int summary.completed);
            ("crashed", Int summary.crashed);
            ("killed", Int summary.killed);
            ("timed_out", Int summary.timed_out);
            ("failures", Int summary.total_failures);
            ("sim_time_ns", Int summary.total_sim_time_ns);
            ("kernel_activations", Int summary.total_activations);
            ("delta_cycles", Int summary.total_delta_cycles);
            ("transactions", Int summary.total_transactions);
            ("completed_ops", Int summary.total_completed_ops);
            ( "checker",
              Assoc
                [ ("activations", Int summary.checker_activations);
                  ("passes", Int summary.checker_passes);
                  ("cache_hits", Int summary.checker_cache_hits);
                  ("cache_misses", Int summary.checker_cache_misses);
                  ("cache_hit_rate", Float cache_hit_rate) ] );
            ( "failures_by_property",
              Assoc
                (List.map (fun (name, n) -> (name, Int n)) summary.failures_by_property)
            );
            ("metrics", metrics_snapshot_json summary.merged_metrics) ] ) ]

(* --- printing ------------------------------------------------------- *)

let pp_summary ppf summary =
  Format.fprintf ppf "%-34s %9s %8s %12s %12s %9s@." "job" "outcome" "attempts"
    "sim time" "activations" "failures";
  List.iter
    (fun r ->
      let outcome =
        match r.outcome with
        | Completed -> "ok"
        | Crashed _ -> "CRASHED"
        | Killed _ -> "KILLED"
        | Timed_out -> "TIMEOUT"
      in
      Format.fprintf ppf "%-34s %9s %8d %10dns %12d %9d@." (job_name r.job)
        outcome r.attempts r.sim_time_ns r.kernel_activations r.failures;
      match r.outcome with
      | Crashed { error } -> Format.fprintf ppf "    error: %s@." error
      | Killed { signal } ->
        Format.fprintf ppf "    error: killed by signal %d@." signal
      | Timed_out -> Format.fprintf ppf "    error: wall-clock watchdog expired@."
      | Completed -> ())
    summary.results;
  Format.fprintf ppf
    "%d jobs on %d worker(s): %d completed, %d crashed, %d killed, %d timed \
     out, %d property failure(s)@."
    (List.length summary.results) summary.workers summary.completed
    summary.crashed summary.killed summary.timed_out summary.total_failures;
  if summary.replayed > 0 then
    Format.fprintf ppf "replayed from journal: %d job(s)@." summary.replayed;
  if summary.pending > 0 then
    Format.fprintf ppf "interrupted: %d job(s) not run@." summary.pending;
  Format.fprintf ppf
    "aggregate: %dns simulated, %d activations, %d transactions, %d ops, \
     checker cache %d/%d@."
    summary.total_sim_time_ns summary.total_activations
    summary.total_transactions summary.total_completed_ops
    summary.checker_cache_hits
    (summary.checker_cache_hits + summary.checker_cache_misses);
  if summary.failures_by_property <> [] then begin
    Format.fprintf ppf "failures by property:@.";
    List.iter
      (fun (name, n) -> Format.fprintf ppf "  %-24s %d@." name n)
      summary.failures_by_property
  end;
  if summary.wall_seconds > 0. then
    Format.fprintf ppf "wall time: %.3fs@." summary.wall_seconds
