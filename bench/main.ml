(* Benchmark harness.  With no gate flag it reproduces the paper's
   evaluation:
     - Fig. 3  : abstraction of the published DES56 properties
     - Table I : simulation overhead of checkers at RTL / TLM-CA /
                 TLM-AT with 1 / 5 / all checkers, two testcases plus
                 the MemCtrl extension IP
     - Fig. 6  : RTL/TLM average speedup with and without checkers
     - Ablations: naive next[n] reuse, strict vs grid wrapper, checker
                  synthesis backend, wrapper instance-pool sizing

   Absolute times differ from the paper (our substrate is a simulator
   written from scratch, not the authors' testbed); the shapes — who
   wins, how overhead scales with checker count, where the speedup
   moves when checkers are added — are the reproduction target.  See
   EXPERIMENTS.md.

   [--<name>-only] instead runs one row of the gate table at the end of
   this file (bench/check.sh runs each row once, with [--quick]).  Any
   other argument is refused with exit 2 before anything runs. *)

open Tabv_psl
open Tabv_duv
module J = Tabv_core.Report_json

(* Every simulation below goes through the one runner. *)
let checked properties model workload =
  Testbench.run { Testbench.default with properties } model workload

(* The evaluation trace of one unchecked run, recorded through the
   binary writer and read back. *)
let recorded_trace model workload =
  let path = Filename.temp_file "tabv_bench" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tabv_trace.Writer.with_file ~path
        (Tabv_trace.Meta.make ~model:"bench" ~seed:0 ~ops:0)
        (fun writer ->
          ignore
            (Testbench.run { Testbench.default with trace_writer = Some writer } model
               workload));
      snd (Tabv_trace.Reader.read_trace path))

(* --- timing -------------------------------------------------------- *)

(* The one sampler behind every timing in this file.  Each side runs
   once to warm up, then [repeat] rounds run every side once each, in
   turn, so a sustained burst of outside load inflates every side
   instead of poisoning one.  Every other round runs the sides in
   reverse order, so each side runs first about as often as last.  A
   major collection before each run keeps one side's garbage out of
   the next side's measurement: every run starts from a collected
   heap.  Returns every sample, keyed like [sides]. *)
let sample ~repeat sides =
  List.iter (fun (_, side) -> side ()) sides;
  let runs = List.map (fun (key, side) -> (key, side, ref [])) sides in
  for round = 1 to repeat do
    List.iter
      (fun (_, side, acc) ->
        Gc.major ();
        let t0 = Unix.gettimeofday () in
        side ();
        acc := (Unix.gettimeofday () -. t0) :: !acc)
      (if round mod 2 = 0 then List.rev runs else runs)
  done;
  List.map (fun (key, _, acc) -> (key, List.rev !acc)) runs

let pct_over ~base t = (t -. base) /. base *. 100.

(* The workloads are deterministic and CPU-bound, so the fastest run is
   the one with the least outside interference: every gate judges the
   minimum after warm-up.  The median and IQR are reported beside it
   so a verdict can be read against the run-to-run spread. *)
let best = List.fold_left Float.min infinity
let best_of timings key = best (List.assoc key timings)

(* Two sides sampled against each other: their minimums, and every
   sample for the verdict. *)
let versus ~repeat a b =
  let timings = sample ~repeat [ a; b ] in
  (best_of timings (fst a), best_of timings (fst b), timings)

(* The ratio [num]/[den] in every round of a {!versus}: each round ran
   the two sides back to back, so outside load that lasts a round
   moves both halves of its ratio alike. *)
let paired timings num den =
  (num ^ "/" ^ den, List.map2 ( /. ) (List.assoc num timings) (List.assoc den timings))

(* Linearly interpolated quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = int_of_float pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let iqr xs = quantile 0.75 xs -. quantile 0.25 xs

(* --- Fig. 3 ------------------------------------------------------ *)

let fig3 () =
  print_endline
    "=== Fig. 3: RTL -> TLM abstraction of the published DES56 properties ===";
  let reports = Des56_props.abstraction_reports () in
  List.iteri
    (fun i report ->
      if i < 3 then Format.printf "%a@.@." Tabv_core.Methodology.pp_report report)
    reports;
  print_endline "Full DES56 set summary:";
  Format.printf "%a@.@." Tabv_core.Methodology.pp_summary reports;
  print_endline "Full ColorConv set summary:";
  Format.printf "%a@.@." Tabv_core.Methodology.pp_summary
    (Colorconv_props.abstraction_reports ())

(* --- Table I ----------------------------------------------------- *)

type level = {
  level_name : string;
  run : Property.t list -> Testbench.run_result;
  checker_sets : (string * Property.t list) list;
}

(* Measured rows: (level, set, base seconds, with-checkers seconds).
   Fig. 6 is derived from these same measurements so the two sections
   are internally consistent.  Every cell of a DUV, base cells
   included, is one side of one sampler call. *)
let table_for ?(rounds = 4) levels =
  let cells =
    List.concat_map
      (fun level ->
        ((level.level_name, None), fun () -> ignore (level.run []))
        :: List.map
             (fun (set_name, props) ->
               ((level.level_name, Some set_name), fun () -> ignore (level.run props)))
             level.checker_sets)
      levels
  in
  let timings = sample ~repeat:rounds cells in
  let rows =
    List.concat_map
      (fun level ->
        let base = best_of timings (level.level_name, None) in
        List.map
          (fun (set_name, _) ->
            let with_c = best_of timings (level.level_name, Some set_name) in
            Printf.printf "%-14s %12.3f %12.3f %10.1f\n"
              (level.level_name ^ " " ^ set_name)
              base with_c (pct_over ~base with_c);
            (level.level_name, set_name, base, with_c))
          level.checker_sets)
      levels
  in
  print_newline ();
  rows

(* The paper's 1 / 5 / all checker columns. *)
let checker_sets props =
  let take n = List.filteri (fun i _ -> i < n) props in
  [ ("1 C", take 1); ("5 C", take 5); ("All C", props) ]

(* One DUV's Table I rows: its RTL, TLM-CA and TLM-AT models from the
   catalog over one seeded workload, each checked by a split of the
   level's built-in set (the Fig. 3 set at RTL and TLM-CA, the
   abstracted set at TLM-AT). *)
let levels_of ~gap_cycles ~columns ~seed ~ops duv =
  List.filter_map
    (fun level ->
      Option.map
        (fun model ->
          (* The workload is generated once, outside every timed run. *)
          let (Models.Entry (m, workload)) = Models.entry model in
          let workload = workload ~seed ~ops in
          { level_name = String.uppercase_ascii (Models.level_name level);
            run =
              (fun properties ->
                Testbench.run { Testbench.default with properties; gap_cycles } m workload);
            checker_sets = columns (fst (Models.properties_for model None)) })
        (Models.of_duv_level duv level))
    [ Models.Rtl; Models.Tlm_ca; Models.Tlm_at ]

(* --- Fig. 6 ------------------------------------------------------ *)

(* Derived from the Table I measurements: speedup = T(RTL) / T(TLM-x),
   without checkers and with each level's full checker set. *)
let fig6_rows name rows =
  let all_c level =
    match List.find_opt (fun (l, s, _, _) -> l = level && s = "All C") rows with
    | Some (_, _, base, with_c) -> (base, with_c)
    | None -> invalid_arg "fig6_rows: missing table row"
  in
  let t_rtl, t_rtl_c = all_c "RTL" in
  List.iter
    (fun level ->
      let t, t_c = all_c level in
      Printf.printf "%-22s %10.2f %10.2f\n" (name ^ " " ^ level) (t_rtl /. t) (t_rtl_c /. t_c))
    [ "TLM-CA"; "TLM-AT" ]

let fig6 ~des_rows ~cc_rows =
  print_endline "=== Fig. 6: RTL/TLM average speedup (higher is better) ===";
  Printf.printf "%-22s %10s %10s\n" "" "w/out c." "with All C";
  fig6_rows "DES56" des_rows;
  fig6_rows "ColorConv" cc_rows;
  print_newline ()

(* --- Ablations ---------------------------------------------------- *)

let ablation_naive_scaling ops =
  print_endline "=== Ablation (Sec. III-A): naive next[n] reuse vs next_eps^tau ===";
  let naive =
    List.map
      (fun p ->
        Property.make ~name:(p.Property.name ^ "_naive")
          ~context:(Context.Transaction Context.Base_trans) p.Property.formula)
      [ Des56_props.p1; Des56_props.p3 ]
  in
  let naive_result = checked naive (Testbench.des56_tlm_at ()) ops in
  let abstracted = Des56_props.tlm_auto_safe () in
  let abstracted_result = checked abstracted (Testbench.des56_tlm_at ()) ops in
  let stuck (result : Testbench.run_result) =
    List.fold_left
      (fun a (s : Tabv_obs.Checker_snapshot.t) -> a + s.pending)
      0 result.checker_stats
  in
  Printf.printf "naive reuse      : %d failures, %d stuck instances (incorrect verdicts)\n"
    (Testbench.total_failures naive_result) (stuck naive_result);
  Printf.printf "abstracted (ours): %d failures, %d stuck instances on the same workload\n\n"
    (Testbench.total_failures abstracted_result)
    (stuck abstracted_result)

let ablation_grid_wrapper ops =
  print_endline "=== Ablation: strict wrapper vs grid wrapper (TLM-AT, DES56) ===";
  let auto_safe = Des56_props.tlm_auto_safe () in
  let with_q2 =
    List.filter_map
      (fun r ->
        match r.Tabv_core.Methodology.output with
        | Some q when q.Property.name = "q2" -> Some q
        | _ -> None)
      (Des56_props.abstraction_reports ())
  in
  let timings =
    sample ~repeat:5
      [ ("base", fun () -> ignore (checked [] (Testbench.des56_tlm_at ()) ops));
        ( "strict",
          fun () -> ignore (checked auto_safe (Testbench.des56_tlm_at ()) ops) );
        ( "grid",
          fun () ->
            ignore
              (Testbench.run
                 { Testbench.default with grid_properties = auto_safe @ with_q2 }
                 (Testbench.des56_tlm_at ()) ops) ) ]
  in
  let t_base = best_of timings "base" in
  let t_strict = best_of timings "strict" and t_grid = best_of timings "grid" in
  Printf.printf "no checkers                          : %8.3f s\n" t_base;
  Printf.printf "strict wrapper (%d props, no q2)      : %8.3f s (+%.1f%%)\n"
    (List.length auto_safe) t_strict (pct_over ~base:t_base t_strict);
  Printf.printf "grid wrapper   (%d props, incl. q2)   : %8.3f s (+%.1f%%)\n\n"
    (List.length auto_safe + List.length with_q2)
    t_grid (pct_over ~base:t_base t_grid)

(* Replay through the shipped monitors with a real [Monitor.step] at
   every sample, never a replay: the backend comparisons below time the
   per-step checker cost, and replaying idle steps on the shipped side
   only would inflate the ratios.  [Reference_monitor.run] feeds the
   oracle side the same way. *)
let replay_run props trace =
  let open Tabv_checker in
  let env = ref [] in
  let sampler = Sampler.create (Expr.env_resolver env) in
  let pool = List.map (fun p -> (p, Monitor.create ~sampler p)) props in
  Seq.iter
    (function
      | Tabv_trace.Entry.Sample { time; env = sample } ->
        env := sample;
        List.iter (fun (_, m) -> Monitor.step m ~time) pool
      | Tabv_trace.Entry.Span _ -> ())
    (Tabv_trace.Entry.of_trace trace);
  pool

(* Generator independence (Sec. IV): one recorded DES56 RTL run
   re-checked by the shipped progression monitors and by reference
   monitors over the test oracle's tabled automata.  Replaying the
   trace times the checkers alone, with no simulation in the loop. *)
let ablation_checker_backend ops =
  print_endline
    "=== Ablation: checker synthesis backend (DES56 RTL trace replay, all 9 \
     checkers) ===";
  let trace = recorded_trace (Testbench.des56_rtl ()) ops in
  let props = Des56_props.all in
  let t_prog, t_auto, _ =
    versus ~repeat:5
      ("progression", fun () -> ignore (replay_run props trace))
      ("automaton", fun () -> ignore (Tabv_oracle.Reference_monitor.run `Automaton props trace))
  in
  Printf.printf "formula progression (rewriting)  : %8.3f s\n" t_prog;
  Printf.printf "explicit-state automaton (tabled): %8.3f s  (%.2fx)\n\n" t_auto
    (t_prog /. t_auto)

let ablation_wrapper_stats ops =
  print_endline "=== Wrapper statistics (Sec. IV): instance pool sizing ===";
  let properties = Des56_props.tlm_auto_safe () in
  let result = checked properties (Testbench.des56_tlm_at ()) ops in
  Printf.printf "%-6s %18s %12s\n" "prop" "paper bound" "peak live";
  List.iter
    (fun (stat : Tabv_obs.Checker_snapshot.t) ->
      Printf.printf "%-6s %18d %12d\n" stat.property_name Des56_iface.latency
        stat.peak_instances)
    result.Testbench.checker_stats;
  print_newline ()

let paper ~quick =
  let des_count = if quick then 1000 else 8000 in
  let pixel_count = if quick then 20_000 else 150_000 in
  Printf.printf
    "tabv benchmark harness (workload: %d DES56 ops, %d ColorConv pixels)%s\n\n"
    des_count pixel_count
    (if quick then " [--quick]" else "");
  fig3 ();
  let table name levels =
    Printf.printf "=== Table I / %s ===\n%-14s %12s %12s %10s\n" name "Abstr. level"
      "w/out c.(s)" "with c.(s)" "Overhead%";
    table_for levels
  in
  let des_rows =
    table "DES56"
      (levels_of ~gap_cycles:Testbench.default.gap_cycles ~columns:checker_sets ~seed:42
         ~ops:des_count Models.Des56)
  in
  let cc_rows =
    table "ColorConv"
      (levels_of ~gap_cycles:6 ~columns:checker_sets ~seed:42 ~ops:pixel_count
         Models.Colorconv)
  in
  ignore
    (table "MemCtrl (extension: third IP, asymmetric latencies)"
       (levels_of ~gap_cycles:Testbench.default.gap_cycles
          ~columns:(fun props -> [ ("All C", props) ])
          ~seed:42 ~ops:(des_count * 2) Models.Memctrl));
  fig6 ~des_rows ~cc_rows;
  let ablation_ops = Workload.des56 ~seed:42 ~count:(des_count / 4) () in
  ablation_naive_scaling ablation_ops;
  ablation_grid_wrapper ablation_ops;
  ablation_checker_backend ablation_ops;
  ablation_wrapper_stats ablation_ops;
  print_endline "done."

(* --- gates --------------------------------------------------------- *)

(* What a gate row's run returns: the artefact's fields (after its
   "benchmark" key), every repeated timing in seconds with all its
   samples, the per-round ratio of every pair of sides it judges
   ({!paired}), and the named predicates that must all hold. *)
type outcome = {
  fields : (string * J.json) list;
  timings : (string * float list) list;
  ratios : (string * float list) list;
  checks : (string * bool) list;
}

let holds what ok = (what, ok)
let at_least what unit v floor =
  (Printf.sprintf "%s %.2f%s >= %g%s" what v unit floor unit, v >= floor)

let at_most what unit v ceiling =
  (Printf.sprintf "%s %.2f%s <= %g%s" what v unit ceiling unit, v <= ceiling)

(* A scratch directory for one gate, removed however the gate exits. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun entry -> remove_tree (Filename.concat path entry)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_scratch_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* --- cache: interned progression vs legacy rewriting ---------------- *)

(* Replay-based measurement of the interned checker core: record one
   evaluation trace per abstraction level, then re-check a replicated
   always-property pool over it with the legacy tree-rewriting engine
   and with the interned/memoized engine.  Replaying isolates the
   checker cost from the simulation itself (both engines see the exact
   same (time, environment) sequence), and the replicated pool models
   the many-wrappers configuration where hash-consing pays: identical
   live instances collapse into one stepped state and the shared
   sampler evaluates each distinct atom once per instant. *)

let replicate_properties n props =
  List.concat_map
    (fun i ->
      List.map
        (fun p ->
          Property.make
            ~name:(Printf.sprintf "%s#%d" p.Property.name i)
            ~context:p.Property.context p.Property.formula)
        props)
    (List.init n (fun i -> i))

let assert_equivalent_outcomes level legacy interned =
  let open Tabv_checker in
  let module R = Tabv_oracle.Reference_monitor in
  let pairs =
    List.map (fun (f : Monitor.failure) -> (f.activation_time, f.failure_time))
  in
  List.iter2
    (fun ((property : Property.t), l) (_, i) ->
      if
        (pairs (R.failures l), R.activations l, R.passes l, R.pending l)
        <> ( pairs (Monitor.failures i),
             Monitor.activations i,
             Monitor.passes i,
             Monitor.pending i )
      then
        failwith
          (Printf.sprintf "checker_cache %s: engines disagree on %s" level
             property.name))
    legacy interned

let cache_gate ~quick =
  let module P = Tabv_checker.Progression in
  let ops_count = if quick then 500 else 1000 and replicate = 8 in
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let levels =
    [ ("RTL", recorded_trace (Testbench.des56_rtl ()) ops, Des56_props.all);
      ("TLM-CA", recorded_trace Testbench.des56_tlm_ca ops, Des56_props.all);
      ( "TLM-AT",
        recorded_trace (Testbench.des56_tlm_at ()) ops,
        Des56_props.tlm_auto_safe () ) ]
  in
  let measured =
    List.map
      (fun (level, trace, props) ->
        let props = replicate_properties replicate props in
        (* Correctness first: both engines must agree on everything
           observable before their times are worth comparing. *)
        let legacy () = Tabv_oracle.Reference_monitor.run `Legacy props trace in
        assert_equivalent_outcomes level (legacy ()) (replay_run props trace);
        (* The hit rate counts the interned side's runs only. *)
        let hits = ref 0 and misses = ref 0 in
        let interned () =
          let before = P.cache_stats () in
          ignore (replay_run props trace);
          let after = P.cache_stats () in
          hits := !hits + after.P.cache_hits - before.P.cache_hits;
          misses :=
            !misses + after.P.cache_misses - before.P.cache_misses
            + (after.P.cache_bypassed - before.P.cache_bypassed)
        in
        let t_legacy, t_interned, timings =
          versus ~repeat:5
            (level ^ ".legacy_seconds", fun () -> ignore (legacy ()))
            (level ^ ".interned_seconds", interned)
        in
        let hit_rate =
          if !hits + !misses = 0 then 0.
          else float_of_int !hits /. float_of_int (!hits + !misses)
        in
        ( level,
          (t_legacy, t_interned, hit_rate),
          J.Assoc
            [ ("level", J.String level);
              ("properties", J.Int (List.length props));
              ("trace_entries", J.Int (Trace.length trace));
              ("legacy_seconds", J.Float t_legacy);
              ("interned_seconds", J.Float t_interned);
              ("speedup", J.Float (t_legacy /. t_interned));
              ("cache_hit_rate", J.Float hit_rate) ],
          timings ))
      levels
  in
  let total pick = List.fold_left (fun a (_, m, _, _) -> a +. pick m) 0. measured in
  let total_legacy = total (fun (l, _, _) -> l) in
  let total_interned = total (fun (_, i, _) -> i) in
  let overall = total_legacy /. total_interned in
  let at_legacy, at_interned, at_hit_rate =
    let _, tlm_at, _, _ = List.find (fun (level, _, _, _) -> level = "TLM-AT") measured in
    tlm_at
  in
  let stats = P.cache_stats () in
  { fields =
      [ ( "workload",
          J.Assoc [ ("des56_ops", J.Int ops_count); ("replication", J.Int replicate) ] );
        ("levels", J.List (List.map (fun (_, _, row, _) -> row) measured));
        ("legacy_seconds_total", J.Float total_legacy);
        ("interned_seconds_total", J.Float total_interned);
        ("overall_speedup", J.Float overall);
        ( "engine_cache",
          J.engine_cache_json ~cache_hits:stats.P.cache_hits
            ~cache_misses:stats.P.cache_misses ~cache_bypassed:stats.P.cache_bypassed
            ~distinct_states:stats.P.distinct_states
            ~distinct_transitions:stats.P.distinct_transitions
            ~interned_formulas:stats.P.interned_formulas () ) ];
    timings = List.concat_map (fun (_, _, _, timings) -> timings) measured;
    ratios =
      List.map
        (fun (level, _, _, timings) ->
          paired timings (level ^ ".legacy_seconds") (level ^ ".interned_seconds"))
        measured;
    checks =
      [ at_least "overall speedup" "x" overall 1.5;
        at_least "TLM-AT cache hit rate" "" at_hit_rate 0.9;
        at_least "TLM-AT interned speedup over legacy" "x" (at_legacy /. at_interned) 1. ]
  }

(* The DES56 RTL workload with all nine checkers, the densest checker
   configuration, as the obs and fault artefacts record it. *)
let des56_workload ops_count =
  J.Assoc
    [ ("des56_ops", J.Int ops_count); ("checkers", J.Int (List.length Des56_props.all)) ]

(* --- obs: instrumentation overhead ---------------------------------- *)

(* The lib/obs contract is "near-zero cost when disabled, cheap when
   enabled": push instruments behind one branch, pull probes off the
   hot path entirely.  Both sides run the densest checker
   configuration (DES56 RTL, all 9 checkers). *)

let obs_gate_pct = 5.0

let obs_gate ~quick =
  let ops_count = if quick then 1000 else 2000 in
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let run_disabled () = checked Des56_props.all (Testbench.des56_rtl ()) ops in
  let run_enabled () =
    (* A fresh registry per run: every attach appends pull probes, so
       reusing one registry across timed runs would make later runs
       snapshot ever-longer probe lists. *)
    let metrics = Tabv_obs.Metrics.create ~enabled:true () in
    Testbench.run
      { Testbench.default with properties = Des56_props.all; metrics = Some metrics }
      (Testbench.des56_rtl ()) ops
  in
  let t_disabled, t_enabled, timings =
    versus ~repeat:7
      ("disabled_seconds", fun () -> ignore (run_disabled ()))
      ("enabled_seconds", fun () -> ignore (run_enabled ()))
  in
  let activations = (run_disabled ()).Testbench.kernel_activations in
  let throughput seconds = float_of_int activations /. seconds in
  let overhead_pct = pct_over ~base:t_disabled t_enabled in
  { fields =
      [ ("schema", J.Int J.metrics_schema_version);
        ("workload", des56_workload ops_count);
        ("kernel_activations", J.Int activations);
        ("disabled_seconds", J.Float t_disabled);
        ("enabled_seconds", J.Float t_enabled);
        ("disabled_activations_per_s", J.Float (throughput t_disabled));
        ("enabled_activations_per_s", J.Float (throughput t_enabled));
        ("overhead_pct", J.Float overhead_pct);
        (* One enabled run supplies the registry snapshot, so CI
           history records what was being counted. *)
        ("metrics", J.metrics_snapshot_json (run_enabled ()).Testbench.metrics) ];
    timings;
    ratios = [ paired timings "enabled_seconds" "disabled_seconds" ];
    checks = [ at_most "metrics-enabled overhead" "%" overhead_pct obs_gate_pct ] }

(* --- campaign: multicore scaling ------------------------------------ *)

(* The campaign runner's contract is (a) determinism — byte-identical
   report JSON for any worker count — and (b) scaling — embarrassingly
   parallel jobs should speed up near-linearly with workers.  On
   machines without [campaign_workers] recommended domains the
   measurement would be noise, so the row records a skip instead. *)

let campaign_gate_x = 2.0
let campaign_workers = 4

let campaign_gate ~quick =
  let open Tabv_campaign.Campaign in
  let ops = if quick then 100 else 300 in
  let jobs =
    expand_matrix
      ~duvs:[ Des56; Colorconv; Memctrl ]
      ~levels:[ Rtl; Tlm_ca; Tlm_at ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let report workers = J.to_string (report_json (run ~workers jobs)) in
  let identical = String.equal (report 1) (report campaign_workers) in
  let t1, t4, timings =
    versus ~repeat:3
      ("seconds_1_worker", fun () -> ignore (run ~workers:1 jobs))
      ("seconds_n_workers", fun () -> ignore (run ~workers:campaign_workers jobs))
  in
  { fields =
      [ ("skipped", J.Bool false);
        ("jobs", J.Int (List.length jobs));
        ("ops_per_job", J.Int ops);
        ("seconds_1_worker", J.Float t1);
        ("seconds_n_workers", J.Float t4);
        ("speedup", J.Float (t1 /. t4));
        ("report_identical", J.Bool identical) ];
    timings;
    ratios = [ paired timings "seconds_1_worker" "seconds_n_workers" ];
    checks =
      [ holds "reports identical at 1 and 4 workers" identical;
        at_least "speedup" "x" (t1 /. t4) campaign_gate_x ] }

(* --- fault: armed-but-idle overhead --------------------------------- *)

(* The fault subsystem's contract is "free when unused": the Signal /
   Tlm interposition hooks, the watchdog checks and the crash
   containment must not tax fault-free runs.  This gate measures the
   worst case short of an actual injection — a latent saboteur
   installed on the output signal plus the qualification guard
   (delta-cycle cap + crash containment) — against the plain run, on
   the densest checker configuration.  The latent plan must also leave
   the run bit-identical (same outputs, zero triggers, Completed). *)

let fault_gate_pct = 2.0

let fault_gate ~quick =
  let ops_count = if quick then 1000 else 2000 in
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let latent_plan =
    match Duv_fault.plan_for Models.Des56 Models.Rtl "out_stuck0_late" with
    | Some plan -> plan
    | None -> failwith "out_stuck0_late has no RTL carrier"
  in
  let guard =
    { Tabv_sim.Kernel.max_delta_cycles = Some 10_000;
      max_steps = None;
      contain_crashes = true }
  in
  let run_plain () = checked Des56_props.all (Testbench.des56_rtl ()) ops in
  let run_armed () =
    Testbench.run
      { Testbench.default with
        properties = Des56_props.all;
        fault_plan = Some latent_plan;
        guard = Some guard }
      (Testbench.des56_rtl ()) ops
  in
  let reference = run_plain () in
  let armed = run_armed () in
  let unperturbed =
    armed.Testbench.outputs = reference.Testbench.outputs
    && armed.Testbench.faults_triggered = 0
    && armed.Testbench.diagnosis = Tabv_sim.Kernel.Completed
    && Testbench.total_failures armed = 0
  in
  let t_plain, t_armed, timings =
    versus ~repeat:9
      ("plain_seconds", fun () -> ignore (run_plain ()))
      ("armed_seconds", fun () -> ignore (run_armed ()))
  in
  let overhead_pct = pct_over ~base:t_plain t_armed in
  { fields =
      [ ("workload", des56_workload ops_count);
        ("latent_plan", J.String "out_stuck0_late");
        ("guard_delta_cap", J.Int 10_000);
        ("plain_seconds", J.Float t_plain);
        ("armed_seconds", J.Float t_armed);
        ("overhead_pct", J.Float overhead_pct);
        ("unperturbed", J.Bool unperturbed) ];
    timings;
    ratios = [ paired timings "armed_seconds" "plain_seconds" ];
    checks =
      [ holds "latent plan and guard leave the run unperturbed" unperturbed;
        at_most "armed-but-idle overhead" "%" overhead_pct fault_gate_pct ] }

(* --- isolate: subprocess executor over in-domain workers ------------ *)

(* The subprocess executor buys crash containment (a SIGSEGV, OOM kill
   or livelock in one job cannot take down the coordinator) at the
   price of forked workers and a length-prefixed JSON wire.  Workers
   are long-lived — one fork per worker slot, not per job — so the
   price must stay a bounded multiple of the in-domain pool on a
   healthy (crash-free) matrix, with the same report bytes (the
   determinism contract spans executors). *)

let isolate_gate_x = 1.5
let isolate_workers = 2

let isolate_gate ~quick =
  let open Tabv_campaign in
  let open Tabv_campaign.Campaign in
  let ops = if quick then 60 else 150 in
  let jobs =
    expand_matrix
      ~duvs:[ Des56; Colorconv ]
      ~levels:[ Rtl; Tlm_ca; Tlm_at ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let run_on executor () =
    run ~workers:isolate_workers ~exec:(Executor.config executor) jobs
  in
  let report executor = J.to_string (report_json (run_on executor ())) in
  let identical = String.equal (report Executor.In_domain) (report Executor.Subprocess) in
  let t_in, t_sub, timings =
    versus ~repeat:3
      ("seconds_in_domain", fun () -> ignore (run_on Executor.In_domain ()))
      ("seconds_subprocess", fun () -> ignore (run_on Executor.Subprocess ()))
  in
  { fields =
      [ ("jobs", J.Int (List.length jobs));
        ("ops_per_job", J.Int ops);
        ("seconds_in_domain", J.Float t_in);
        ("seconds_subprocess", J.Float t_sub);
        ("ratio", J.Float (t_sub /. t_in));
        ("report_identical", J.Bool identical) ];
    timings;
    ratios = [ paired timings "seconds_subprocess" "seconds_in_domain" ];
    checks =
      [ holds "reports identical across executors" identical;
        at_most "subprocess / in-domain" "x" (t_sub /. t_in) isolate_gate_x ] }

(* --- trace: record once, recheck many ------------------------------- *)

(* The simulate-once / check-many contract behind [tabv record] /
   [tabv recheck]: replaying a property set against the recorded
   binary trace must beat re-simulating the model with live checkers
   by a wide margin (the simulator, not the checkers, dominates a
   live run), the two verdict reports must be byte-identical, and the
   compact binary encoding must stay a small fraction of the
   equivalent VCD. *)

let trace_gate_speedup = 5.0
let trace_gate_size_pct = 20.0

(* The gate's 10-property set: boolean handshake invariants over the
   DES56 interface, the bread-and-butter regression properties a
   recheck campaign sweeps after every abstraction tweak.  Invariants
   keep the checker cost roughly proportional on both sides, so the
   ratio measures what the trace subsystem actually saves: decoding a
   stored valuation stream and stepping it through the live pool's
   replay rule ([Offline]: one prime per changed sample, an idle step's
   counters replayed) versus re-running the RTL simulation with the
   same pool attached. *)
let trace_gate_props =
  List.init 10 (fun i ->
      Parser.property_exn
        ~name:(Printf.sprintf "trace_inv_%d" i)
        (match i mod 5 with
        | 0 -> "always (!rdy || !rdy_next_cycle) @clk_pos"
        | 1 -> "always (!ds || !rdy) @clk_pos"
        | 2 -> "always (!(ds && indata = 0) || !rdy) @clk_pos"
        | 3 -> "always (!rdy_next_next_cycle || !rdy) @clk_pos"
        | _ -> "always (!decrypt || !rdy_next_cycle) @clk_pos"))

let trace_gate ~quick =
  let ops_count = if quick then 1500 else 4000 in
  let ops = Workload.des56 ~seed:42 ~count:ops_count () in
  let props = trace_gate_props in
  with_scratch_dir "tabv_bench_trace" @@ fun dir ->
  let trace_path = Filename.concat dir "run.trace" in
  let vcd_path = Filename.concat dir "run.vcd" in
  let meta = Tabv_trace.Meta.make ~model:"des56-rtl" ~seed:42 ~ops:ops_count in
  (* Each measured run starts from a cold checker universe so neither
     side inherits the other's warm transition cache. *)
  (* Eight idle cycles between operations: a bus master that issues
     back-to-back with zero think time is the unrealistic extreme, and
     idle cycles are exactly where the trace subsystem earns its keep
     (a stuttered sample is two bytes on disk and, offline, a reused
     valuation and a counter bump per monitor, but a full simulated
     cycle plus a pool step live). *)
  let gap_cycles = 8 in
  let live () =
    Tabv_checker.Progression.reset_universe ();
    Testbench.run
      { Testbench.default with properties = props; gap_cycles }
      (Testbench.des56_rtl ()) ops
  in
  (* One recording pass through the writer tap; the VCD is the same
     recording read back and exported, as `tabv trace` does. *)
  Tabv_trace.Writer.with_file ~path:trace_path meta (fun w ->
      Tabv_checker.Progression.reset_universe ();
      ignore
        (Testbench.run
           { Testbench.default with properties = props; gap_cycles; trace_writer = Some w }
           (Testbench.des56_rtl ()) ops));
  Tabv_sim.Trace_dump.to_file (snd (Tabv_trace.Reader.read_trace trace_path)) vcd_path;
  let recheck () =
    Tabv_campaign.Recheck.run ~workers:1 ~retries:0 ~trace:trace_path props
  in
  let live_report =
    J.to_string (Models.verdict_report Models.Des56_rtl ~seed:42 ~ops:ops_count (live ()))
  in
  let recheck_report = J.to_string (Tabv_campaign.Recheck.report_json (recheck ())) in
  let identical = String.equal live_report recheck_report in
  let t_live, t_recheck, timings =
    versus ~repeat:5
      ("seconds_live_check", fun () -> ignore (live ()))
      ("seconds_recheck", fun () -> ignore (recheck ()))
  in
  let speedup = t_live /. t_recheck in
  let trace_bytes = (Unix.stat trace_path).Unix.st_size in
  let vcd_bytes = (Unix.stat vcd_path).Unix.st_size in
  let size_pct = 100.0 *. float_of_int trace_bytes /. float_of_int vcd_bytes in
  { fields =
      [ ("properties", J.Int (List.length props));
        ("ops", J.Int ops_count);
        ("seconds_live_check", J.Float t_live);
        ("seconds_recheck", J.Float t_recheck);
        ("speedup", J.Float speedup);
        ("trace_bytes", J.Int trace_bytes);
        ("vcd_bytes", J.Int vcd_bytes);
        ("trace_vcd_pct", J.Float size_pct);
        ("report_identical", J.Bool identical) ];
    timings;
    ratios = [ paired timings "seconds_live_check" "seconds_recheck" ];
    checks =
      [ holds "live and recheck reports identical" identical;
        at_least "recheck speedup" "x" speedup trace_gate_speedup;
        at_most "trace size vs VCD" "%" size_pct trace_gate_size_pct ] }

(* --- served gates: shared plumbing ----------------------------------- *)

module Server = Tabv_serve.Server
module Client = Tabv_serve.Client
module Protocol = Tabv_serve.Protocol

let check_job ?trace_out ~ops seed =
  Protocol.Check
    { model = Models.Des56_rtl; seed; ops; props = None; engine = None; trace_out }

(* The one-shot reference bytes for [check_job ~ops seed]: fresh
   universe, same model run, same rendering — what `tabv check
   --report-json` would write. *)
let one_shot_report ~ops seed =
  Tabv_checker.Progression.reset_universe ();
  let properties, grid_properties = Models.properties_for Models.Des56_rtl None in
  let result =
    Models.run
      { Testbench.default with properties; grid_properties }
      Models.Des56_rtl ~seed ~ops
  in
  J.to_string (Models.verdict_report Models.Des56_rtl ~seed ~ops result) ^ "\n"

(* The campaign the chaos gate's fault-free control client submits,
   with its one-shot report. *)
let campaign_manifest =
  let job level =
    J.Assoc
      [ ("duv", J.String "des56"); ("level", J.String level); ("seed", J.Int 1);
        ("ops", J.Int 10) ]
  in
  J.Assoc [ ("jobs", J.List [ job "rtl"; job "tlm-ca" ]) ]

let one_shot_campaign () =
  match Tabv_campaign.Campaign.manifest_of_json campaign_manifest with
  | Error msg -> failwith msg
  | Ok m ->
    J.to_string
      (Tabv_campaign.Campaign.report_json
         (Tabv_campaign.Campaign.run ~workers:2 ~retries:1
            m.Tabv_campaign.Campaign.manifest_jobs))
    ^ "\n"

let daemon_config dir =
  { (Server.default_config ~socket:(Filename.concat dir "s.sock") ()) with
    workers = max 2 (min 4 (Domain.recommended_domain_count ())) }

(* A client of [config]'s daemon for the duration of [f]. *)
let with_client config f =
  match Client.connect (`Unix config.Server.socket) with
  | Error e -> failwith e
  | Ok client -> Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

(* The last request of the serve and chaos gates: the daemon must still
   take a shutdown over the wire after the load. *)
let shutdown_taken client =
  match Client.control client Protocol.Shutdown with
  | Client.Shutting_down -> true
  | _ -> false

(* --- serve: throughput and warm reuse -------------------------------- *)

(* [serve_clients] client threads drive one in-process daemon over its
   Unix socket through three phases — cold checks (every request
   executes), the identical checks again (every request is a warm
   cache replay), and a mixed check/recheck round.  Each phase runs
   once: the second is only warm because the first was cold. *)

let serve_clients = 8
let serve_rps_floor = 5.0
let serve_warm_gate = 2.0

let serve_gate ~quick =
  let ops = if quick then 100 else 250 in
  with_scratch_dir "tabv_bench_serve" @@ fun dir ->
  let config = { (daemon_config dir) with queue_bound = 256 } in
  let trace_path = Filename.concat dir "bench.trace" in
  let seeds c = [ 1000 + (2 * c); 1001 + (2 * c) ] in
  let expected =
    List.map
      (fun s -> (s, one_shot_report ~ops s))
      (42 :: List.concat_map seeds (List.init serve_clients Fun.id))
  in
  let identical = Atomic.make true in
  let expect seed report =
    if report <> List.assoc seed expected then Atomic.set identical false
  in
  let t_cold, t_warm, t_mixed =
    Server.with_daemon config @@ fun () ->
    (* Record once so the mixed phase has a trace to recheck; the
       record request's own report must already match the live
       check's. *)
    with_client config (fun ctl ->
        match Client.request ctl (check_job ~trace_out:trace_path ~ops 42) with
        | Client.Result { ok = true; report; _ } -> expect 42 report
        | _ -> failwith "record request failed");
    (* One phase: every client thread opens its own connection and
       drains its request list; wall time covers all of them. *)
    let run_phase jobs_for =
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init serve_clients (fun c ->
            Thread.create
              (fun () ->
                with_client config (fun client ->
                    List.iter
                      (fun (job, seed) ->
                        match Client.request_with_retry client job with
                        | Client.Result { report; _ } -> expect seed report
                        | Client.Rejected _ | Client.Failed _ ->
                          Atomic.set identical false)
                      (jobs_for c)))
              ())
      in
      List.iter Thread.join threads;
      Unix.gettimeofday () -. t0
    in
    let check_phase () =
      run_phase (fun c -> List.map (fun s -> (check_job ~ops s, s)) (seeds c))
    in
    let t_cold = check_phase () in
    let t_warm = check_phase () in
    let t_mixed =
      run_phase (fun c ->
          [ (check_job ~ops (1000 + (2 * c)), 1000 + (2 * c));
            ( Protocol.Recheck
                { trace = trace_path; props = None; workers = 1; retries = 1 },
              42 ) ])
    in
    if not (with_client config shutdown_taken) then Atomic.set identical false;
    (t_cold, t_warm, t_mixed)
  in
  let requests = (serve_clients * 2 * 3) + 1 in
  let wall = t_cold +. t_warm +. t_mixed in
  let rps = float_of_int requests /. wall in
  let warm_speedup = t_cold /. Float.max t_warm 1e-6 in
  let identical = Atomic.get identical in
  { fields =
      [ ("workers", J.Int config.Server.workers);
        ("ops", J.Int ops);
        ("requests", J.Int requests);
        ("wall_s", J.Float wall);
        ("cold_s", J.Float t_cold);
        ("warm_s", J.Float t_warm);
        ("mixed_s", J.Float t_mixed);
        ("requests_per_s", J.Float rps);
        ("warm_speedup", J.Float warm_speedup);
        ("identical", J.Bool identical) ];
    timings = [];
    ratios = [];
    checks =
      [ holds "every response byte-identical to the one-shot report, shutdown taken" identical;
        at_least "throughput" " req/s" rps serve_rps_floor;
        at_least "warm replay speedup" "x" warm_speedup serve_warm_gate ] }

(* --- chaos: the daemon under wire-level fault injection -------------- *)

(* Survival gate for the serving stack.  [chaos_clients] client threads
   hammer one daemon through seeded {!Tabv_fault.Fault.Net} plans
   installed on their own outbound sockets — torn frames, truncated and
   corrupted length prefixes, slow-loris dribble, mid-request resets,
   duplicated frames, handshake garbage — reconnecting and retrying
   around every injected failure, while a fault-free control client
   pushes journaled campaigns through the same daemon.  The fault plan
   may cost retries, never answers; the daemon must end drained and
   leak-free; and the hooks must be free when idle. *)

let chaos_clients = 8
let chaos_requests = 6
let chaos_attempt_cap = 60
let chaos_campaigns = 3
let chaos_idle_gate_pct = 2.0

(* Absolute slack under the percentage gate: a warm round trip bottoms
   out around 45 us, so [chaos_idle_gate_pct] of it is under a
   microsecond — below [Unix.gettimeofday]'s useful resolution and the
   socket noise floor of a shared box.  The gate exists to catch a hook
   that does real per-frame work (allocation bursts, serialization),
   which costs tens of microseconds per request; a minimum-latency diff
   under this slack is measurement noise, not a tax. *)
let chaos_idle_slack_s = 20e-6

(* The minimum over hundreds of identical warm round trips is the
   scheduling-noise-free cost of the path, and a hook tax would be a
   constant add to exactly that path; burst totals at this scale are
   dominated by thread-scheduling jitter. *)
let chaos_idle_samples = 400

let count_open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let chaos_gate ~quick =
  let module Net = Tabv_fault.Fault.Net in
  let ops = if quick then 60 else 150 in
  let fds_before = count_open_fds () in
  let metrics = Tabv_obs.Metrics.create ~enabled:true () in
  with_scratch_dir "tabv_bench_chaos" @@ fun dir ->
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o700;
  let config =
    { (daemon_config dir) with
      queue_bound = 64;
      conn_idle_timeout_s = 2.0;
      state_dir = Some state;
      obs = Some metrics }
  in
  (* Four distinct seeds shared by all clients: the first completion of
     each executes cold, the rest replay warm — the soak hammers the
     wire, not the simulator. *)
  let seeds = [ 3001; 3002; 3003; 3004 ] in
  let expected = List.map (fun s -> (s, one_shot_report ~ops s)) seeds in
  let expected_campaign = one_shot_campaign () in
  let mismatches = Atomic.make 0 in
  let exhausted = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let reconnects = Atomic.make 0 in
  let campaigns_ok = Atomic.make 0 in
  (* One armed plan per client, surviving its reconnects: the frame
     counter and trigger count span the whole soak. *)
  let armed =
    Array.init chaos_clients (fun c ->
        Net.arm (Net.generate ~seed:(900 + c) ~frames:10 ~count:8))
  in
  let chaos_thread c =
    let conn = ref None in
    let drop () =
      Option.iter Client.close !conn;
      conn := None
    in
    let rec get tries =
      match !conn with
      | Some client -> client
      | None ->
        (match Client.connect (`Unix config.Server.socket) with
         | Ok client ->
           Client.interpose client (Net.apply armed.(c));
           Atomic.incr reconnects;
           conn := Some client;
           client
         | Error e ->
           if tries = 0 then failwith e;
           Thread.delay 0.01;
           get (tries - 1))
    in
    for r = 0 to chaos_requests - 1 do
      let seed = List.nth seeds ((c + r) mod List.length seeds) in
      let rec go attempt =
        if attempt > chaos_attempt_cap then Atomic.incr exhausted
        else
          match Client.request (get 500) (check_job ~ops seed) with
          | Client.Result { report; _ } ->
            Atomic.incr completed;
            if report <> List.assoc seed expected then Atomic.incr mismatches
          | Client.Rejected _ ->
            Thread.delay 0.05;
            go (attempt + 1)
          | Client.Failed _ ->
            drop ();
            go (attempt + 1)
      in
      go 1
    done;
    drop ()
  in
  (* The control client sees no faults: its journaled campaigns must
     run to completion through whatever the chaos clients do to the
     daemon, and must leave no journal behind. *)
  let control_thread () =
    with_client config (fun client ->
        for _ = 1 to chaos_campaigns do
          match
            Client.request_with_retry ~attempts:30 client
              (Protocol.Campaign
                 { manifest = campaign_manifest; workers = 2; retries = Some 1;
                   journal = true })
          with
          | Client.Result { report; _ } when report = expected_campaign ->
            Atomic.incr campaigns_ok
          | _ -> ()
        done)
  in
  let soak_s, (min_plain, min_latent, idle) =
    Server.with_daemon config @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let threads =
      Thread.create control_thread ()
      :: List.init chaos_clients (fun c -> Thread.create chaos_thread c)
    in
    List.iter Thread.join threads;
    let soak_s = Unix.gettimeofday () -. t0 in
    (* Armed-but-idle overhead: two clean connections replay the same
       warm request in alternation — one bare, one with a latent
       empty-plan interpose, whose only work is counting the frame and
       scanning an empty plan. *)
    let once client () =
      match Client.request client (check_job ~ops (List.hd seeds)) with
      | Client.Result _ -> ()
      | Client.Rejected _ | Client.Failed _ -> Atomic.incr mismatches
    in
    let idle =
      with_client config @@ fun plain ->
      with_client config @@ fun latent ->
      Client.interpose latent (Net.apply (Net.arm Net.no_faults));
      versus ~repeat:chaos_idle_samples ("idle_plain_s", once plain)
        ("idle_latent_s", once latent)
    in
    if not (with_client config shutdown_taken) then Atomic.incr mismatches;
    (soak_s, idle)
  in
  (* Leak audit, after the daemon has fully wound down: the probes
     still answer (they read the server's tables), the state dir must
     hold nothing, and this process must be back to its fd baseline. *)
  let gauge_after name =
    match Tabv_obs.Metrics.find metrics name with
    | Some (Tabv_obs.Metrics.Gauge n) -> n
    | _ -> -1
  in
  let inflight_after = gauge_after "serve.inflight_keys" in
  let journals_after = gauge_after "serve.active_journals" in
  let state_clean = Sys.readdir state = [||] in
  let fd_leak =
    match (fds_before, count_open_fds ()) with
    | Some before, Some after -> Some (after - before)
    | _ -> None
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 armed in
  let triggered = sum Net.net_triggered in
  let survived =
    Atomic.get mismatches = 0
    && Atomic.get exhausted = 0
    && Atomic.get completed = chaos_clients * chaos_requests
    && Atomic.get campaigns_ok = chaos_campaigns
    && triggered > 0
  in
  let drained = inflight_after = 0 && journals_after = 0 && state_clean in
  let idle_diff_s = min_latent -. min_plain in
  let idle_overhead_pct = pct_over ~base:min_plain min_latent in
  let idle_gate_ok =
    idle_overhead_pct <= chaos_idle_gate_pct || idle_diff_s <= chaos_idle_slack_s
  in
  { fields =
      [ ("ops", J.Int ops);
        ("workers", J.Int config.Server.workers);
        ("soak_s", J.Float soak_s);
        ("faults_armed", J.Int (sum Net.armed_faults));
        ("faults_triggered", J.Int triggered);
        ("frames_sent", J.Int (sum Net.frames_sent));
        ("connections", J.Int (Atomic.get reconnects));
        ("completed", J.Int (Atomic.get completed));
        ("mismatches", J.Int (Atomic.get mismatches));
        ("exhausted", J.Int (Atomic.get exhausted));
        ("journaled_campaigns_ok", J.Int (Atomic.get campaigns_ok));
        ("inflight_keys_after", J.Int inflight_after);
        ("active_journals_after", J.Int journals_after);
        ("state_dir_clean", J.Bool state_clean);
        ("fd_leak", match fd_leak with Some n -> J.Int n | None -> J.Null);
        ("idle_overhead_pct", J.Float idle_overhead_pct);
        ("idle_min_plain_us", J.Float (min_plain *. 1e6));
        ("idle_min_latent_us", J.Float (min_latent *. 1e6));
        ("idle_gate_ok", J.Bool idle_gate_ok);
        ("survived", J.Bool survived);
        ("drained", J.Bool drained) ];
    timings = idle;
    ratios = [ paired idle "idle_latent_s" "idle_plain_s" ];
    checks =
      [ holds "all requests completed identically, faults triggered, shutdown taken" survived;
        holds "daemon drained: no inflight keys, journals or state files" drained;
        holds
          (match fd_leak with
           | Some n -> Printf.sprintf "fd leak %d = 0" n
           | None -> "fd leak unmeasurable (no /proc)")
          (fd_leak = None || fd_leak = Some 0);
        holds
          (Printf.sprintf "idle hook cost %+.2f%% <= %g%% or %+.1f us <= %g us"
             idle_overhead_pct chaos_idle_gate_pct (idle_diff_s *. 1e6)
             (chaos_idle_slack_s *. 1e6))
          idle_gate_ok ] }

(* --- durability: power-cut recovery soak + IO seam overhead --------- *)

(* The byte-identity contract rests on durable storage, so the storage
   layer gets the same treatment the wire got in the chaos soak: power
   cuts at every durable write boundary of a journaled campaign, a
   full disk mid-append, and the price of the IO seam itself — the
   production tax of hookability is ~zero or the seam does not ship. *)

let durability_gate_pct = 2.0

let durability_gate ~quick =
  let open Tabv_campaign in
  let open Tabv_campaign.Campaign in
  let module Io_fault = Tabv_fault.Fault.Io in
  let ops = if quick then 30 else 60 in
  let append_count = if quick then 20_000 else 50_000 in
  let jobs =
    expand_matrix ~duvs:[ Des56; Colorconv ] ~levels:[ Rtl; Tlm_ca ]
      ~seeds:[ 1; 2 ] ~ops ()
  in
  let fp = fingerprint ~retries:1 jobs in
  with_scratch_dir "tabv_bench_dur" @@ fun dir ->
  let path = Journal.state_path ~dir ~kind:journal_kind ~fingerprint:fp in
  let journaled ~resume =
    match Journal.open_ ~path ~kind:journal_kind ~fingerprint:fp ~resume with
    | Error msg -> failwith ("durability bench: " ^ msg)
    | Ok journal ->
      Fun.protect
        ~finally:(fun () -> Journal.close journal)
        (fun () -> run ~workers:2 ~journal jobs)
  in
  let report_of summary = J.to_string (report_json summary) in
  (* Uninterrupted run, with the [Fault.Io] observer enumerating the
     write boundaries a real crash could stop at. *)
  let observer = Io_fault.arm (Io_fault.plan ~name:"observe" ~scope:".journal" []) in
  Io_fault.install observer;
  let expected =
    Fun.protect ~finally:Io_fault.uninstall (fun () ->
        report_of (journaled ~resume:false))
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let boundaries = Io_fault.write_boundaries observer path in
  let header_len =
    match String.index_opt full '\n' with
    | Some i -> i + 1
    | None -> failwith "durability bench: journal has no header line"
  in
  (* Every prefix a power cut could leave — nothing, the header commit,
     and each fsynced append boundary — must resume to the identical
     report. *)
  let cuts = 0 :: header_len :: boundaries in
  let mismatches =
    List.length
      (List.filter
         (fun cut ->
           let cut = min cut (String.length full) in
           Out_channel.with_open_bin path (fun oc ->
               Out_channel.output_string oc (String.sub full 0 cut));
           report_of (journaled ~resume:true) <> expected)
         cuts)
  in
  (* ENOSPC round: the disk fills mid-campaign, cutting one append
     short — a torn record the CRC framing must refuse to replay.  The
     run dies with an honest storage error; clearing the fault and
     resuming must still converge on the identical report. *)
  let enospc_ok =
    Sys.remove path;
    let budget =
      match boundaries with
      | _ :: _ ->
        (* Mid-record, halfway down the journal: a short write. *)
        List.nth boundaries (List.length boundaries / 2) + 7
      | [] -> header_len + 7
    in
    Io_fault.install
      (Io_fault.arm
         (Io_fault.plan ~name:"enospc" ~scope:".journal"
            [ Io_fault.Enospc_after { bytes = budget } ]));
    let died_honestly =
      Fun.protect ~finally:Io_fault.uninstall (fun () ->
          match journaled ~resume:false with
          | _ -> false (* the budget should have been exceeded *)
          | exception Tabv_core.Io.Io_error { error = Unix.ENOSPC; _ } -> true)
    in
    died_honestly && report_of (journaled ~resume:true) = expected
  in
  let stale_tmp =
    Sys.readdir dir |> Array.to_list
    |> List.filter Tabv_core.Io.is_temp_path
    |> List.length
  in
  (* Passthrough price of the IO seam on the append path: framed
     buffered appends through hookless [Tabv_core.Io] vs a raw
     out_channel write+flush loop on the same bytes, one fsync at the
     end of each batch.  Per-append fsyncs would drown the seam's CPU
     cost in device-latency noise (±15% run to run, against a 2%
     gate); the hookability tax lives in [write]/[flush], which is
     what this prices. *)
  let line =
    J.to_string
      (J.Assoc [ ("id", J.Int 12); ("record", J.String (String.make 160 'r')) ])
    ^ "\n"
  in
  let raw_path = Filename.concat dir "baseline.raw" in
  let run_raw () =
    let oc = open_out_bin raw_path in
    for _ = 1 to append_count do
      output_string oc line;
      flush oc
    done;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc
  in
  let io_path = Filename.concat dir "baseline.io" in
  let run_io () =
    let io = Tabv_core.Io.create io_path in
    for _ = 1 to append_count do
      Tabv_core.Io.write io line;
      Tabv_core.Io.flush io
    done;
    Tabv_core.Io.fsync io;
    Tabv_core.Io.close io
  in
  (* Interleaving puts page-cache and writeback drift on both sides
     equally; min-of-repeats then cancels what remains. *)
  let t_raw, t_io, timings =
    versus ~repeat:5 ("seconds_raw_append", run_raw) ("seconds_io_append", run_io)
  in
  let overhead_pct = pct_over ~base:t_raw t_io in
  { fields =
      [ ("jobs", J.Int (List.length jobs));
        ("ops_per_job", J.Int ops);
        ("journal_bytes", J.Int (String.length full));
        ("write_boundaries", J.Int (List.length boundaries));
        ("crash_images_resumed", J.Int (List.length cuts));
        ("resume_mismatches", J.Int mismatches);
        ("resumes_identical", J.Bool (mismatches = 0));
        ("enospc_recovered", J.Bool enospc_ok);
        ("stale_tmp_files", J.Int stale_tmp);
        ("appends_timed", J.Int append_count);
        ("seconds_raw_append", J.Float t_raw);
        ("seconds_io_append", J.Float t_io);
        ("append_overhead_pct", J.Float overhead_pct) ];
    timings;
    ratios = [ paired timings "seconds_io_append" "seconds_raw_append" ];
    checks =
      [ holds "every crash image resumes byte-identically" (mismatches = 0);
        holds (Printf.sprintf "%d stale temp file(s)" stale_tmp) (stale_tmp = 0);
        holds "ENOSPC fails honestly and resumes identically" enospc_ok;
        at_most "IO seam append overhead" "%" overhead_pct durability_gate_pct ] }

(* --- the gate table ------------------------------------------------- *)

type gate = {
  name : string;  (* selected by --<name>-only *)
  benchmark : string;  (* writes BENCH_<benchmark>.json *)
  min_domains : int;  (* below this many recommended domains, record a skip *)
  constants : (string * J.json) list;  (* thresholds, also recorded on a skip *)
  run : quick:bool -> outcome;
}

let gate ?(min_domains = 1) ?(constants = []) name benchmark run =
  { name; benchmark; min_domains; constants; run }

let gates =
  [ gate "cache" "checker_cache" cache_gate;
    gate "obs" "obs_overhead" obs_gate ~constants:[ ("gate_pct", J.Float obs_gate_pct) ];
    gate "campaign" "campaign_scaling" campaign_gate ~min_domains:campaign_workers
      ~constants:[ ("workers", J.Int campaign_workers); ("gate", J.Float campaign_gate_x) ];
    gate "fault" "fault_overhead" fault_gate
      ~constants:[ ("gate_pct", J.Float fault_gate_pct) ];
    gate "isolate" "isolate_overhead" isolate_gate
      ~constants:[ ("workers", J.Int isolate_workers); ("gate", J.Float isolate_gate_x) ];
    gate "trace" "trace_recheck" trace_gate
      ~constants:
        [ ("gate_speedup", J.Float trace_gate_speedup);
          ("gate_size_pct", J.Float trace_gate_size_pct) ];
    gate "serve" "serve_throughput" serve_gate
      ~constants:
        [ ("clients", J.Int serve_clients); ("rps_floor", J.Float serve_rps_floor);
          ("warm_gate", J.Float serve_warm_gate) ];
    gate "chaos" "serve_chaos" chaos_gate
      ~constants:
        [ ("clients", J.Int chaos_clients);
          ("requests_per_client", J.Int chaos_requests);
          ("idle_gate_pct", J.Float chaos_idle_gate_pct);
          ("idle_slack_us", J.Float (chaos_idle_slack_s *. 1e6)) ];
    gate "durability" "io_durability" durability_gate
      ~constants:[ ("gate_pct", J.Float durability_gate_pct) ] ]

let spread_json xs =
  J.Assoc
    [ ("min", J.Float (best xs));
      ("median", J.Float (quantile 0.5 xs));
      ("iqr", J.Float (iqr xs));
      ("n", J.Int (List.length xs)) ]

let spread_text (label, xs) =
  Printf.sprintf "%s %.4g s (median %.4g, IQR %.2g, n %d)" label (best xs)
    (quantile 0.5 xs) (iqr xs) (List.length xs)

let ratio_json xs =
  J.Assoc
    [ ("rounds", J.List (List.map (fun x -> J.Float x) xs));
      ("median", J.Float (quantile 0.5 xs));
      ("iqr", J.Float (iqr xs)) ]

let ratio_text (label, xs) =
  Printf.sprintf "%s by round %s (median %.4g, IQR %.2g)" label
    (String.concat " " (List.map (Printf.sprintf "%.3f") xs))
    (quantile 0.5 xs) (iqr xs)

(* Run one row: print its fields, write BENCH_<benchmark>.json from the
   same fields plus the spread of every repeated timing and every
   per-round ratio, and print one PASS/FAIL line carrying the
   predicates, the spreads and the ratios.  Returns whether every
   predicate held. *)
let run_gate ~quick gate =
  Printf.printf "=== gate %s (BENCH_%s.json) ===\n%!" gate.name gate.benchmark;
  let domains = Domain.recommended_domain_count () in
  let outcome =
    if domains < gate.min_domains then
      let reason =
        Printf.sprintf "recommended_domain_count %d < %d" domains gate.min_domains
      in
      { fields = [ ("skipped", J.Bool true); ("reason", J.String reason) ];
        timings = [];
        ratios = [];
        checks = [ holds ("skipped: " ^ reason) true ] }
    else gate.run ~quick
  in
  let fields = gate.constants @ outcome.fields in
  List.iter (fun (key, value) -> Printf.printf "%-28s %s\n" key (J.to_string value)) fields;
  let spread = List.map (fun (label, xs) -> (label, spread_json xs)) outcome.timings in
  let paired = List.map (fun (label, xs) -> (label, ratio_json xs)) outcome.ratios in
  let doc =
    (("benchmark", J.String gate.benchmark) :: fields)
    @ [ ("spread", J.Assoc spread); ("paired", J.Assoc paired) ]
  in
  let file = Printf.sprintf "BENCH_%s.json" gate.benchmark in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (J.to_string (J.Assoc doc) ^ "\n"));
  Printf.printf "wrote %s\n" file;
  let ok = List.for_all snd outcome.checks in
  let check (what, held) = if held then what else what ^ " FAILED" in
  Printf.printf "%s %s: %s\n\n%!"
    (if ok then "PASS" else "FAIL")
    gate.name
    (String.concat "; "
       (List.map check outcome.checks
       @ List.map spread_text outcome.timings
       @ List.map ratio_text outcome.ratios));
  ok

(* Hidden subprocess-executor hook: the isolation-overhead gate runs
   campaigns on the subprocess executor with the default worker argv,
   which re-executes *this* binary with [_worker]. *)
let () = Tabv_serve.Handler.worker_hook ()

let () =
  let accepted = "--quick" :: List.map (fun gate -> "--" ^ gate.name ^ "-only") gates in
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.find_opt (fun arg -> not (List.mem arg accepted)) args with
   | Some arg ->
     Printf.eprintf "bench: unknown argument %S (accepted: %s)\n" arg
       (String.concat " " accepted);
     exit 2
   | None -> ());
  let flag f = List.mem f args in
  let quick = flag "--quick" in
  match List.filter (fun gate -> flag ("--" ^ gate.name ^ "-only")) gates with
  | [] -> paper ~quick
  | selected ->
    let verdicts = List.map (run_gate ~quick) selected in
    if not (List.for_all Fun.id verdicts) then exit 1
