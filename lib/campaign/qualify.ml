(* Fault-qualification campaigns.

   One qualification run = per requested level, a clean baseline plus
   one faulted run per applicable catalog fault, all executed on the
   same pluggable {!Executor} as plain campaigns (fresh checker
   universe before every job).  Verdict attribution, coverage,
   cross-level regressions and the resilience scenarios are folded
   after the pool drains, so the report is a pure function of
   (duv, levels, seed, ops) — whatever executor ran it, and whether or
   not it was resumed from a journal. *)

open Tabv_duv
module Detect = Tabv_checker.Detect
module Fault = Tabv_fault.Fault
module Kernel = Tabv_sim.Kernel
module J = Tabv_core.Report_json

let ( let* ) = Result.bind

(* Delta cap fixed (so a livelock diagnosis reports the same
   [delta_cycles] everywhere), step budget off, crashes contained. *)
let job_guard =
  { Kernel.max_delta_cycles = Some 10_000; max_steps = None; contain_crashes = true }

let diagnosis_kind = function
  | Kernel.Completed -> "completed"
  | Kernel.Starved _ -> "starved"
  | Kernel.Livelock _ -> "livelock"
  | Kernel.Budget_exhausted _ -> "budget_exhausted"
  | Kernel.Process_crashed _ -> "process_crashed"

(* --- report model --------------------------------------------------- *)

type fault_outcome =
  | No_carrier
  | Qualified of {
      plan : Fault.plan;
      triggered : int;
      diagnosis : Kernel.diagnosis;
      verdicts : Detect.property_verdict list;
      verdict : Detect.verdict;
    }

type fault_row = {
  fault : string;
  outcome : fault_outcome;
}

type level_report = {
  level : Models.level;
  baseline_failures : int;
  baseline_diagnosis : Kernel.diagnosis;
  rows : fault_row list;
  detected : int;
  missed : int;
  latent : int;
  applicable : int;
  coverage : float;
}

type scenario = {
  scenario : string;
  scenario_level : Models.level;
  expected : string;
  diagnosis : Kernel.diagnosis;
  matched : bool;
}

type report = {
  duv : Models.duv;
  seed : int;
  ops : int;
  levels : level_report list;
  resilience : scenario list;
  regressions : string list;
}

(* --- the job pool --------------------------------------------------- *)

exception Interrupted

type pool_job =
  | Baseline of Models.level
  | Fault_run of {
      level : Models.level;
      fault : string;
      plan : Fault.plan;
    }
  | Scenario_run of {
      name : string;
      level : Models.level;
      plan : Fault.plan;
      expected : string;
    }

(* Baselines and fault runs attach the level's built-in suite; the
   scenarios assert termination diagnoses, not property verdicts, so
   they run bare (no checkers). *)
let exec_pool_job ~duv ~seed ~ops job =
  let level, fault_plan, checked =
    match job with
    | Baseline level -> (level, None, true)
    | Fault_run { level; plan; _ } -> (level, Some plan, true)
    | Scenario_run { level; plan; _ } -> (level, Some plan, false)
  in
  (* [run] validates every level before a job is built. *)
  let model = Option.get (Models.of_duv_level duv level) in
  let properties = if checked then fst (Models.properties_for model None) else [] in
  Models.run
    { Testbench.default with properties; fault_plan; guard = Some job_guard }
    model ~seed ~ops

let dedup levels =
  List.fold_left
    (fun acc level -> if List.mem level acc then acc else level :: acc)
    [] levels
  |> List.rev

let scenarios_for ~duv levels =
  let first = List.hd levels in
  let chaos =
    [ ( "crash",
        first,
        Duv_fault.crash_plan ~at_ns:45 ~name:"qualify_crash",
        "process_crashed" );
      ("livelock", first, Duv_fault.livelock_plan ~at_ns:45, "livelock")
    ]
  in
  let deadlock =
    List.find_map
      (fun level ->
        Option.map
          (fun plan -> ("deadlock", level, plan, "starved"))
          (Duv_fault.hang_plan duv level ~index:2))
      levels
  in
  chaos @ Option.to_list deadlock

(* The whole job matrix as a deterministic function of (duv, levels):
   plans are pure descriptions, compiled up front in (level-major,
   catalog) order, scenarios last.  A worker process regenerates the
   identical array from the request parameters and picks one index. *)
let pool_jobs ~duv ~levels =
  let names = Duv_fault.fault_names duv in
  let fault_jobs =
    List.concat_map
      (fun level ->
        Baseline level
        :: List.filter_map
             (fun fault ->
               Option.map
                 (fun plan -> Fault_run { level; fault; plan })
                 (Duv_fault.plan_for duv level fault))
             names)
      levels
  in
  let scenario_jobs =
    List.map
      (fun (name, level, plan, expected) ->
        Scenario_run { name; level; plan; expected })
      (scenarios_for ~duv levels)
  in
  Array.of_list (fault_jobs @ scenario_jobs)

(* --- execution payloads --------------------------------------------- *)

type qrun = {
  q_checker_stats : Tabv_obs.Checker_snapshot.t list;
  q_faults_triggered : int;
  q_diagnosis : Kernel.diagnosis;
}

let qrun_of_run (r : Testbench.run_result) =
  {
    q_checker_stats = r.Testbench.checker_stats;
    q_faults_triggered = r.Testbench.faults_triggered;
    q_diagnosis = r.Testbench.diagnosis;
  }

let qrun_json q =
  J.Assoc
    [ ("faults_triggered", J.Int q.q_faults_triggered);
      ("diagnosis", Fault.diagnosis_json q.q_diagnosis);
      ("properties", J.List (List.map J.checker_snapshot_json q.q_checker_stats))
    ]

let qrun_of_json json =
  let what = "qualify payload" in
  let* fields = J.open_assoc what json in
  let* q_faults_triggered = J.int_field what "faults_triggered" fields in
  let* q_diagnosis =
    let* v = J.field what "diagnosis" fields in
    Fault.diagnosis_of_json v
  in
  let* q_checker_stats =
    let* v = J.field what "properties" fields in
    let* items = J.open_list (what ^ ".properties") v in
    J.map_result J.checker_snapshot_of_json items
  in
  Ok { q_checker_stats; q_faults_triggered; q_diagnosis }

(* --- the worker op ---------------------------------------------------- *)

(* One pool job as a worker receives it: the run's parameters and the
   job's index; the worker regenerates the matrix and picks one. *)
type pool_spec = {
  s_duv : Models.duv;
  s_levels : Models.level list;
  s_seed : int;
  s_ops : int;
  s_index : int;
}

let exec_index s ~attempt:_ =
  let jobs = pool_jobs ~duv:s.s_duv ~levels:s.s_levels in
  if s.s_index < 0 || s.s_index >= Array.length jobs then
    invalid_arg
      (Printf.sprintf "Qualify.exec_index: index %d out of range" s.s_index);
  (* Fresh interning + obligation universes per job: snapshots depend
     only on the job, not on its worker placement. *)
  Tabv_checker.Progression.reset_universe ();
  qrun_of_run
    (exec_pool_job ~duv:s.s_duv ~seed:s.s_seed ~ops:s.s_ops jobs.(s.s_index))

let params_fields ~duv ~levels ~seed ~ops =
  [ ("duv", J.String (Models.duv_name duv));
    ("levels", J.List (List.map (fun l -> J.String (Models.level_name l)) levels));
    ("seed", J.Int seed);
    ("ops", J.Int ops) ]

let params_of_fields what fields =
  let* duv =
    let* name = J.string_field what "duv" fields in
    match Models.duv_of_name name with
    | Some duv -> Ok duv
    | None -> Error (Printf.sprintf "%s: unknown duv %S" what name)
  in
  let* levels =
    let* v = J.field what "levels" fields in
    let* items = J.open_list (what ^ ".levels") v in
    J.map_result
      (function
        | J.String name ->
          (match Models.level_of_name name with
           | Some level -> Ok level
           | None -> Error (Printf.sprintf "%s: unknown level %S" what name))
        | _ -> Error (what ^ ".levels: expected strings"))
      items
  in
  let* seed = J.int_field what "seed" fields in
  let* ops = J.int_field what "ops" fields in
  Ok (duv, levels, seed, ops)

let pool_spec_json s =
  J.Assoc
    (params_fields ~duv:s.s_duv ~levels:s.s_levels ~seed:s.s_seed ~ops:s.s_ops
    @ [ ("index", J.Int s.s_index) ])

let pool_spec_of_json json =
  let what = "spec" in
  let* fields = J.open_assoc what json in
  let* s_duv, s_levels, s_seed, s_ops = params_of_fields what fields in
  let* s_index = J.int_field what "index" fields in
  Ok { s_duv; s_levels; s_seed; s_ops; s_index }

let op =
  { Executor.name = "qualify_job";
    spec = { to_json = pool_spec_json; of_json = pool_spec_of_json };
    run = exec_index;
    result = { to_json = qrun_json; of_json = qrun_of_json } }

(* --- journals -------------------------------------------------------- *)

let journal_kind = "qualify"

(* [record_format] names the journal records' shape, so a journal
   written with another shape (bare results, before records carried
   their attempts) is refused at open instead of mis-read. *)
let fingerprint ~duv ~levels ~seed ~ops =
  Journal.fingerprint_of_string
    (J.to_string
       (J.Assoc
          (("kind", J.String journal_kind)
          :: ("record_format", J.Int 2)
          :: params_fields ~duv ~levels:(dedup levels) ~seed ~ops)))

(* --- running --------------------------------------------------------- *)

let run ?(workers = 1) ?(retries = 1) ?(exec = Executor.config Executor.In_domain)
    ?journal ?interrupted ~duv ~levels ~seed ~ops () =
  let levels = dedup levels in
  if levels = [] then invalid_arg "Qualify.run: no levels";
  List.iter
    (fun level ->
      match Campaign.validate (Campaign.job ~duv ~level ~seed ~ops ()) with
      | Ok () -> ()
      | Error reason -> invalid_arg ("Qualify.run: " ^ reason))
    levels;
  let names = Duv_fault.fault_names duv in
  let specs =
    List.init
      (Array.length (pool_jobs ~duv ~levels))
      (fun s_index ->
        { s_duv = duv; s_levels = levels; s_seed = seed; s_ops = ops; s_index })
  in
  let slots = Executor.run exec ~workers ~retries ?interrupted ?journal op specs in
  let result i =
    match slots.(i) with
    | Some { Executor.outcome = Executor.Done q; _ } -> q
    | Some { Executor.outcome = Executor.Failed failure; _ } ->
      (* A job the executor could not complete still gets a row:
         deterministic failures produce the same synthetic crash
         diagnosis on every run. *)
      {
        q_checker_stats = [];
        q_faults_triggered = 0;
        q_diagnosis =
          Kernel.Process_crashed
            { name = "qualify-job"; error = Executor.failure_to_string failure };
      }
    | None -> raise Interrupted
  in
  (* --- fold the matrix --- *)
  let level_reports = ref [] in
  let rtl_detected = ref [] and ca_missed = ref [] in
  let i = ref 0 in
  List.iter
    (fun level ->
      let baseline = result !i in
      incr i;
      let rows =
        List.map
          (fun fault ->
            match Duv_fault.plan_for duv level fault with
            | None -> { fault; outcome = No_carrier }
            | Some plan ->
              let r = result !i in
              incr i;
              let verdicts =
                Detect.classify
                  ~triggered:r.q_faults_triggered
                  ~baseline:baseline.q_checker_stats
                  ~faulted:r.q_checker_stats
              in
              let verdict = Detect.summary verdicts in
              (match level, verdict with
               | Models.Rtl, Detect.Detected ->
                 rtl_detected := fault :: !rtl_detected
               | Models.Tlm_ca, (Detect.Missed | Detect.Latent) ->
                 ca_missed := fault :: !ca_missed
               | _ -> ());
              {
                fault;
                outcome =
                  Qualified
                    {
                      plan;
                      triggered = r.q_faults_triggered;
                      diagnosis = r.q_diagnosis;
                      verdicts;
                      verdict;
                    };
              })
          names
      in
      let count v =
        List.length
          (List.filter
             (fun row ->
               match row.outcome with
               | Qualified q -> q.verdict = v
               | No_carrier -> false)
             rows)
      in
      let detected = count Detect.Detected in
      let missed = count Detect.Missed in
      let latent = count Detect.Latent in
      let applicable = detected + missed + latent in
      let coverage =
        let denominator = applicable - latent in
        if denominator <= 0 then 1.0
        else float_of_int detected /. float_of_int denominator
      in
      level_reports :=
        {
          level;
          baseline_failures =
            Tabv_obs.Checker_snapshot.total_failures baseline.q_checker_stats;
          baseline_diagnosis = baseline.q_diagnosis;
          rows;
          detected;
          missed;
          latent;
          applicable;
          coverage;
        }
        :: !level_reports)
    levels;
  let resilience =
    List.map
      (fun (name, level, _plan, expected) ->
        let r = result !i in
        incr i;
        let diagnosis = r.q_diagnosis in
        {
          scenario = name;
          scenario_level = level;
          expected;
          diagnosis;
          matched = diagnosis_kind diagnosis = expected;
        })
      (scenarios_for ~duv levels)
  in
  (* The re-use claim, falsifiable: a fault the RTL suite detects,
     whose TLM-CA carrier exists, must be detected at TLM-CA too. *)
  let regressions =
    List.filter (fun fault -> List.mem fault !ca_missed) (List.rev !rtl_detected)
  in
  { duv; seed; ops; levels = List.rev !level_reports; resilience; regressions }

let ok report =
  report.regressions = [] && List.for_all (fun s -> s.matched) report.resilience

(* --- deterministic report ------------------------------------------- *)

let qualify_schema_version = 1

let verdict_json (v : Detect.property_verdict) =
  let open J in
  Assoc
    [ ("property", String v.Detect.property);
      ("verdict", String (Detect.verdict_to_string v.Detect.verdict));
      ("baseline_failures", Int v.Detect.baseline_failures);
      ("fault_failures", Int v.Detect.fault_failures) ]

let row_json row =
  let open J in
  match row.outcome with
  | No_carrier ->
    Assoc [ ("fault", String row.fault); ("status", String "no-carrier") ]
  | Qualified q ->
    Assoc
      [ ("fault", String row.fault);
        ("status", String "qualified");
        ("verdict", String (Detect.verdict_to_string q.verdict));
        ("triggered", Int q.triggered);
        ("diagnosis", Fault.diagnosis_json q.diagnosis);
        ("plan", Fault.plan_json q.plan);
        ("properties", List (List.map verdict_json q.verdicts)) ]

let level_json l =
  let open J in
  Assoc
    [ ("level", String (Models.level_name l.level));
      ("baseline_failures", Int l.baseline_failures);
      ("baseline_diagnosis", Fault.diagnosis_json l.baseline_diagnosis);
      ("faults", List (List.map row_json l.rows));
      ( "coverage",
        Assoc
          [ ("detected", Int l.detected);
            ("missed", Int l.missed);
            ("latent", Int l.latent);
            ("applicable", Int l.applicable);
            ("score", Float l.coverage) ] ) ]

let scenario_json s =
  let open J in
  Assoc
    [ ("scenario", String s.scenario);
      ("level", String (Models.level_name s.scenario_level));
      ("expected", String s.expected);
      ("diagnosis", Fault.diagnosis_json s.diagnosis);
      ("matched", Bool s.matched) ]

let report_json report =
  let open J in
  Assoc
    [ ("schema", Int qualify_schema_version);
      ( "qualify",
        Assoc
          [ ("duv", String (Models.duv_name report.duv));
            ("seed", Int report.seed);
            ("ops", Int report.ops) ] );
      ("levels", List (List.map level_json report.levels));
      ("resilience", List (List.map scenario_json report.resilience));
      ("regressions", List (List.map (fun f -> String f) report.regressions));
      ("ok", Bool (ok report)) ]

(* --- printing ------------------------------------------------------- *)

let verdict_cell = function
  | No_carrier -> "-"
  | Qualified { verdict = Detect.Detected; _ } -> "D"
  | Qualified { verdict = Detect.Missed; _ } -> "M"
  | Qualified { verdict = Detect.Latent; _ } -> "L"

let pp_report ppf report =
  let names = Duv_fault.fault_names report.duv in
  Format.fprintf ppf "detection matrix (%s, seed=%d, ops=%d)@."
    (Models.duv_name report.duv) report.seed report.ops;
  Format.fprintf ppf "%-16s" "fault";
  List.iter
    (fun l -> Format.fprintf ppf " %8s" (Models.level_name l.level))
    report.levels;
  Format.fprintf ppf "@.";
  List.iter
    (fun fault ->
      Format.fprintf ppf "%-16s" fault;
      List.iter
        (fun l ->
          let row = List.find (fun r -> r.fault = fault) l.rows in
          Format.fprintf ppf " %8s" (verdict_cell row.outcome))
        report.levels;
      Format.fprintf ppf "@.")
    names;
  List.iter
    (fun l ->
      Format.fprintf ppf
        "%s: %d detected, %d missed, %d latent of %d applicable (coverage %.2f)@."
        (Models.level_name l.level) l.detected l.missed l.latent l.applicable
        l.coverage)
    report.levels;
  List.iter
    (fun s ->
      Format.fprintf ppf "resilience %-9s @@%s: expected %s, got %s%s@."
        s.scenario
        (Models.level_name s.scenario_level)
        s.expected
        (Kernel.diagnosis_to_string s.diagnosis)
        (if s.matched then "" else "  <- MISMATCH"))
    report.resilience;
  (match report.regressions with
   | [] -> ()
   | faults ->
     Format.fprintf ppf "cross-level regressions (RTL detected, TLM-CA missed):@.";
     List.iter (fun f -> Format.fprintf ppf "  %s@." f) faults);
  Format.fprintf ppf "verdict: %s@." (if ok report then "OK" else "FAILED")
