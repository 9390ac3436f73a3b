(* Unit suite for the observability layer (lib/obs): the metrics
   registry (counters, gauges, histograms, probes, timers), the shared
   checker snapshot record, and the determinism of registry snapshots
   across identically-seeded runs. *)

module Metrics = Tabv_obs.Metrics
module Checker_snapshot = Tabv_obs.Checker_snapshot

let case name f = Alcotest.test_case name `Quick f

let value : Metrics.value Alcotest.testable =
  Alcotest.testable Metrics.pp_value ( = )

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* --- counters / gauges ------------------------------------------------ *)

let counter_cases =
  [ case "counter counts" (fun () ->
      let m = Metrics.create () in
      let c = Metrics.counter m "a" in
      Metrics.incr c;
      Metrics.add c 4;
      Alcotest.(check int) "value" 5 (Metrics.counter_value c));
    case "re-registration returns the same instrument" (fun () ->
      let m = Metrics.create () in
      let c1 = Metrics.counter m "a" in
      let c2 = Metrics.counter m "a" in
      Metrics.incr c1;
      Metrics.incr c2;
      Alcotest.(check int) "shared" 2 (Metrics.counter_value c1));
    case "disabled registry: push updates are no-ops" (fun () ->
      let m = Metrics.disabled () in
      let c = Metrics.counter m "a" in
      let g = Metrics.gauge m "g" in
      let h = Metrics.histogram m "h" in
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.set g 7;
      Metrics.record_max g 9;
      Metrics.observe h 3;
      Alcotest.check value "counter" (Metrics.Counter 0)
        (Option.get (Metrics.find m "a"));
      Alcotest.check value "gauge" (Metrics.Gauge 0)
        (Option.get (Metrics.find m "g"));
      (match Metrics.find m "h" with
       | Some (Metrics.Histogram s) -> Alcotest.(check int) "empty" 0 s.count
       | _ -> Alcotest.fail "histogram expected"));
    case "set_enabled switches updates on and off" (fun () ->
      let m = Metrics.create ~enabled:false () in
      let c = Metrics.counter m "a" in
      Metrics.incr c;
      Metrics.set_enabled m true;
      Metrics.incr c;
      Metrics.set_enabled m false;
      Metrics.incr c;
      Alcotest.(check int) "only the middle incr counted" 1
        (Metrics.counter_value c));
    case "kind mismatch raises Invalid_argument" (fun () ->
      let m = Metrics.create () in
      ignore (Metrics.counter m "a");
      expect_invalid_arg "gauge over counter" (fun () -> Metrics.gauge m "a");
      expect_invalid_arg "histogram over counter" (fun () ->
        Metrics.histogram m "a");
      expect_invalid_arg "probe over counter" (fun () ->
        Metrics.probe m "a" (fun () -> 0)));
    case "gauge set and record_max" (fun () ->
      let m = Metrics.create () in
      let g = Metrics.gauge m "g" in
      Metrics.set g 5;
      Metrics.record_max g 3;
      Alcotest.(check int) "max keeps 5" 5 (Metrics.gauge_value g);
      Metrics.record_max g 11;
      Alcotest.(check int) "max takes 11" 11 (Metrics.gauge_value g);
      Metrics.set g 2;
      Alcotest.(check int) "set overrides" 2 (Metrics.gauge_value g)) ]

(* --- histograms ------------------------------------------------------- *)

let histogram_cases =
  [ case "histogram summary: count/sum/min/max and 2^i buckets" (fun () ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      List.iter (Metrics.observe h) [ 1; 2; 3; 4; 5; 1000 ];
      match Metrics.find m "h" with
      | Some (Metrics.Histogram s) ->
        Alcotest.(check int) "count" 6 s.count;
        Alcotest.(check int) "sum" 1015 s.sum;
        Alcotest.(check int) "min" 1 s.min_value;
        Alcotest.(check int) "max" 1000 s.max_value;
        (* 1 -> (..1], 2 -> (1,2], 3,4 -> (2,4], 5 -> (4,8],
           1000 -> (512,1024] *)
        Alcotest.(check (list (pair int int)))
          "buckets"
          [ (1, 1); (2, 1); (4, 2); (8, 1); (1024, 1) ]
          s.by_upper_bound
      | _ -> Alcotest.fail "histogram expected");
    case "empty histogram reports zero min/max" (fun () ->
      let m = Metrics.create () in
      ignore (Metrics.histogram m "h");
      match Metrics.find m "h" with
      | Some (Metrics.Histogram s) ->
        Alcotest.(check int) "min" 0 s.min_value;
        Alcotest.(check int) "max" 0 s.max_value;
        Alcotest.(check (list (pair int int))) "buckets" [] s.by_upper_bound
      | _ -> Alcotest.fail "histogram expected") ]

(* --- probes ----------------------------------------------------------- *)

let probe_cases =
  [ case "probes combine with Sum and Max at snapshot time" (fun () ->
      let m = Metrics.create () in
      let a = ref 3 and b = ref 4 in
      Metrics.probe m "sum" (fun () -> !a);
      Metrics.probe m "sum" (fun () -> !b);
      Metrics.probe m ~combine:`Max "max" (fun () -> !a);
      Metrics.probe m ~combine:`Max "max" (fun () -> !b);
      Alcotest.check value "sum" (Metrics.Gauge 7)
        (Option.get (Metrics.find m "sum"));
      Alcotest.check value "max" (Metrics.Gauge 4)
        (Option.get (Metrics.find m "max"));
      a := 10;
      Alcotest.check value "sum re-evaluates" (Metrics.Gauge 14)
        (Option.get (Metrics.find m "sum"));
      Alcotest.check value "max re-evaluates" (Metrics.Gauge 10)
        (Option.get (Metrics.find m "max")));
    case "probe combiner mismatch raises" (fun () ->
      let m = Metrics.create () in
      Metrics.probe m "p" (fun () -> 0);
      expect_invalid_arg "Max over Sum" (fun () ->
        Metrics.probe m ~combine:`Max "p" (fun () -> 0)));
    case "a Max probe reports a negative value" (fun () ->
      let m = Metrics.create () in
      Metrics.probe m ~combine:`Max "p" (fun () -> -1);
      Alcotest.(check (list (pair string value))) "snapshot"
        [ ("p", Metrics.Gauge (-1)) ] (Metrics.snapshot m));
    case "probes answer on a disabled registry" (fun () ->
      let m = Metrics.disabled () in
      Metrics.probe m "p" (fun () -> 42);
      Alcotest.check value "probe" (Metrics.Gauge 42)
        (Option.get (Metrics.find m "p"))) ]

(* --- snapshot / reset ------------------------------------------------- *)

let snapshot_cases =
  [ case "snapshot is sorted by name" (fun () ->
      let m = Metrics.create () in
      ignore (Metrics.counter m "zebra");
      ignore (Metrics.counter m "alpha");
      ignore (Metrics.gauge m "mid");
      Alcotest.(check (list string))
        "order" [ "alpha"; "mid"; "zebra" ]
        (List.map fst (Metrics.snapshot m)));
    case "find on an unknown name is None" (fun () ->
      let m = Metrics.create () in
      Alcotest.(check bool) "none" true (Metrics.find m "nope" = None));
    case "reset zeroes instruments but keeps probes registered" (fun () ->
      let m = Metrics.create () in
      let c = Metrics.counter m "c" in
      let g = Metrics.gauge m "g" in
      let h = Metrics.histogram m "h" in
      Metrics.probe m "p" (fun () -> 5);
      Metrics.add c 3;
      Metrics.set g 9;
      Metrics.observe h 100;
      Metrics.reset m;
      Alcotest.check value "counter" (Metrics.Counter 0)
        (Option.get (Metrics.find m "c"));
      Alcotest.check value "gauge" (Metrics.Gauge 0)
        (Option.get (Metrics.find m "g"));
      (match Metrics.find m "h" with
       | Some (Metrics.Histogram s) ->
         Alcotest.(check int) "histogram count" 0 s.count;
         Alcotest.(check (list (pair int int))) "buckets" [] s.by_upper_bound
       | _ -> Alcotest.fail "histogram expected");
      Alcotest.check value "probe survives reset" (Metrics.Gauge 5)
        (Option.get (Metrics.find m "p"))) ]

(* --- merge ------------------------------------------------------------ *)

let merge_cases =
  let registry fill =
    let m = Metrics.create () in
    fill m;
    Metrics.snapshot m
  in
  [ case "merge sums counters and maxes gauges" (fun () ->
      let a =
        registry (fun m ->
          Metrics.add (Metrics.counter m "c") 3;
          Metrics.set (Metrics.gauge m "g") 7)
      in
      let b =
        registry (fun m ->
          Metrics.add (Metrics.counter m "c") 4;
          Metrics.set (Metrics.gauge m "g") 5)
      in
      let merged = Metrics.merge a b in
      Alcotest.check value "counter" (Metrics.Counter 7)
        (List.assoc "c" merged);
      Alcotest.check value "gauge" (Metrics.Gauge 7) (List.assoc "g" merged));
    case "merge aligns by name and passes singletons through" (fun () ->
      let a = registry (fun m -> Metrics.add (Metrics.counter m "only_a") 1) in
      let b =
        registry (fun m ->
          Metrics.add (Metrics.counter m "only_b") 2;
          Metrics.add (Metrics.counter m "zz") 3)
      in
      Alcotest.(check (list string))
        "names sorted" [ "only_a"; "only_b"; "zz" ]
        (List.map fst (Metrics.merge a b)));
    case "merge sums histograms bucket by bucket" (fun () ->
      let a =
        registry (fun m ->
          let h = Metrics.histogram m "h" in
          Metrics.observe h 1;
          Metrics.observe h 100)
      in
      let b =
        registry (fun m ->
          let h = Metrics.histogram m "h" in
          Metrics.observe h 100;
          Metrics.observe h 5000)
      in
      match List.assoc "h" (Metrics.merge a b) with
      | Metrics.Histogram s ->
        Alcotest.(check int) "count" 4 s.count;
        Alcotest.(check int) "sum" 5201 s.sum;
        Alcotest.(check int) "min" 1 s.min_value;
        Alcotest.(check int) "max" 5000 s.max_value;
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.by_upper_bound in
        Alcotest.(check int) "bucket total" 4 total
      | _ -> Alcotest.fail "histogram expected");
    case "merge with an empty-count histogram keeps the other side" (fun () ->
      let a = registry (fun m -> ignore (Metrics.histogram m "h")) in
      let b =
        registry (fun m -> Metrics.observe (Metrics.histogram m "h") 9)
      in
      match List.assoc "h" (Metrics.merge a b) with
      | Metrics.Histogram s ->
        Alcotest.(check int) "count" 1 s.count;
        Alcotest.(check int) "min" 9 s.min_value
      | _ -> Alcotest.fail "histogram expected");
    case "merge rejects mismatched kinds" (fun () ->
      let a = registry (fun m -> ignore (Metrics.counter m "x")) in
      let b = registry (fun m -> ignore (Metrics.gauge m "x")) in
      expect_invalid_arg "kind clash" (fun () -> Metrics.merge a b));
    case "merge_all folds many snapshots" (fun () ->
      let snap n = registry (fun m -> Metrics.add (Metrics.counter m "c") n) in
      Alcotest.check value "sum" (Metrics.Counter 6)
        (List.assoc "c" (Metrics.merge_all [ snap 1; snap 2; snap 3 ]));
      Alcotest.(check (list (pair string value))) "empty" []
        (Metrics.merge_all [])) ]

(* --- timers ----------------------------------------------------------- *)

let timer_cases =
  [ case "timers stay at zero until a clock is installed" (fun () ->
      let m = Metrics.create () in
      let tm = Metrics.timer m "t" in
      Alcotest.(check bool) "not timing" false (Metrics.timing m);
      Metrics.start tm;
      Metrics.stop tm;
      Alcotest.(check (float 0.)) "seconds" 0. (Metrics.timer_seconds tm);
      Alcotest.(check int) "laps" 0 (Metrics.timer_laps tm));
    case "timers accumulate with an installed fake clock" (fun () ->
      let m = Metrics.create () in
      let now = ref 0. in
      Metrics.set_clock m (fun () -> !now);
      Alcotest.(check bool) "timing" true (Metrics.timing m);
      let tm = Metrics.timer m "t" in
      Metrics.start tm;
      now := 1.5;
      Metrics.stop tm;
      Metrics.start tm;
      now := 2.0;
      Metrics.stop tm;
      Alcotest.(check (float 1e-9)) "seconds" 2.0 (Metrics.timer_seconds tm);
      Alcotest.(check int) "laps" 2 (Metrics.timer_laps tm));
    case "time wrapper is exception-safe" (fun () ->
      let m = Metrics.create () in
      let now = ref 0. in
      Metrics.set_clock m (fun () -> !now);
      let tm = Metrics.timer m "t" in
      (try
         Metrics.time tm (fun () ->
           now := 0.25;
           failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (float 1e-9)) "stopped on raise" 0.25
        (Metrics.timer_seconds tm);
      Alcotest.(check int) "laps" 1 (Metrics.timer_laps tm));
    case "timers do not sample on a disabled registry" (fun () ->
      let m = Metrics.create ~enabled:false () in
      Metrics.set_clock m (fun () -> 99.);
      let tm = Metrics.timer m "t" in
      Metrics.start tm;
      Metrics.stop tm;
      Alcotest.(check (float 0.)) "seconds" 0. (Metrics.timer_seconds tm));
    case "timers listing is sorted and excluded from snapshot" (fun () ->
      let m = Metrics.create () in
      let now = ref 0. in
      Metrics.set_clock m (fun () -> !now);
      ignore (Metrics.timer m "z");
      ignore (Metrics.timer m "a");
      Alcotest.(check (list string))
        "timer order" [ "a"; "z" ]
        (List.map (fun (n, _, _) -> n) (Metrics.timers m));
      Alcotest.(check (list string)) "snapshot empty" []
        (List.map fst (Metrics.snapshot m))) ]

(* --- checker snapshot ------------------------------------------------- *)

let snapshot_record base =
  { Checker_snapshot.property_name = "p";
    engine = "progression";
    activations = 10;
    passes = 8;
    trivial_passes = 1;
    vacuous = false;
    peak_instances = 2;
    peak_distinct_states = 4;
    pending = 0;
    steps = 20;
    cache_hits = base;
    cache_misses = base;
    failures = [];
  }

let checker_snapshot_cases =
  [ case "cache_hit_rate" (fun () ->
      let s = { (snapshot_record 0) with cache_hits = 3; cache_misses = 1 } in
      Alcotest.(check (float 1e-9)) "3/4" 0.75
        (Checker_snapshot.cache_hit_rate s);
      Alcotest.(check (float 0.)) "never stepped" 0.
        (Checker_snapshot.cache_hit_rate (snapshot_record 0)));
    case "total_failures sums across properties" (fun () ->
      let f =
        { Checker_snapshot.property_name = "p"; activation_time = 10;
          failure_time = 20 }
      in
      let s1 = { (snapshot_record 0) with failures = [ f; f ] } in
      let s2 = snapshot_record 0 in
      Alcotest.(check int) "two" 2
        (Checker_snapshot.total_failures [ s1; s2 ])) ]

(* --- integration: seeded runs, registry determinism ------------------- *)

let integration_cases =
  [ case "two seeded runs produce identical registry snapshots" (fun () ->
      (* The process-global interning/progression memo is cumulative, so
         cache counters differ between in-process reruns; everything
         else must match exactly. *)
      let run () =
        let metrics = Metrics.create ~enabled:true () in
        let ops = Tabv_duv.Workload.des56 ~seed:7 ~count:12 () in
        (Tabv_duv.Testbench.run
           { Tabv_duv.Testbench.default with metrics = Some metrics }
           (Tabv_duv.Testbench.des56_rtl ()) ops)
          .metrics
      in
      let mentions_cache name =
        let rec scan i =
          i + 5 <= String.length name
          && (String.sub name i 5 = "cache" || scan (i + 1))
        in
        scan 0
      in
      let stable = List.filter (fun (name, _) -> not (mentions_cache name)) in
      let a = stable (run ()) and b = stable (run ()) in
      Alcotest.(check (list (pair string value))) "snapshots" a b;
      Alcotest.(check bool) "non-trivial" true (List.length a > 5));
    case "disabled-by-default runs snapshot nothing" (fun () ->
      let ops = Tabv_duv.Workload.des56 ~seed:7 ~count:4 () in
      let r =
        Tabv_duv.Testbench.run Tabv_duv.Testbench.default (Tabv_duv.Testbench.des56_rtl ()) ops
      in
      Alcotest.(check int) "empty" 0 (List.length r.metrics));
    case "metrics_json carries the schema version" (fun () ->
      let metrics = Metrics.create ~enabled:true () in
      let ops = Tabv_duv.Workload.des56 ~seed:7 ~count:4 () in
      let r =
        Tabv_duv.Testbench.run
          { Tabv_duv.Testbench.default with metrics = Some metrics }
          (Tabv_duv.Testbench.des56_rtl ()) ops
      in
      let json =
        Tabv_core.Report_json.to_string
          (Tabv_duv.Testbench.metrics_json
             ~run:[ ("model", Tabv_core.Report_json.String "des56-rtl") ]
             r)
      in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
        scan 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
            (contains needle json))
        [ "\"schema\":1"; "\"run\":"; "\"metrics\":"; "\"properties\":";
          "\"engine\":"; "\"model\":\"des56-rtl\"";
          "\"kernel.activations\"" ]) ]

let suite =
  ( "obs",
    counter_cases @ histogram_cases @ probe_cases @ snapshot_cases
    @ merge_cases @ timer_cases @ checker_snapshot_cases
    @ integration_cases )
