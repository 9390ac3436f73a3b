open Tabv_psl
open Tabv_checker

(* Unit tests for the Monitor instance manager (Sec. IV wrapper
   behaviour: activation, evaluation, reset/reuse, gating). *)

let case name f = Alcotest.test_case name `Quick f

let lookup_of bindings name = List.assoc_opt name bindings

let env ~a ~b = lookup_of [ ("a", Expr.VBool a); ("b", Expr.VBool b) ]

let prop source = Parser.property_exn ~name:"m" source

let step monitor time e = Helpers.monitor_step monitor ~time e

let activation_cases =
  [ case "always spawns an instance per evaluation point" (fun () ->
      let monitor = Helpers.monitor (prop "always(a || next[3](b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:false ~b:false);
      step monitor 20 (env ~a:false ~b:false);
      Alcotest.(check int) "three live" 3 (Monitor.live_instances monitor);
      Alcotest.(check int) "peak" 3 (Monitor.peak_instances monitor));
    case "trivially-true instances are not registered (Sec. IV point 4)" (fun () ->
      let monitor = Helpers.monitor (prop "always(a || next[3](b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      Alcotest.(check int) "none live" 0 (Monitor.live_instances monitor);
      Alcotest.(check int) "counted as passes" 2 (Monitor.passes monitor));
    case "instances retire on completion and slots are reused" (fun () ->
      let monitor = Helpers.monitor (prop "always(a || next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "one live" 1 (Monitor.live_instances monitor);
      step monitor 10 (env ~a:false ~b:true);
      (* The first instance resolved true; the second is newly live. *)
      Alcotest.(check int) "one live again" 1 (Monitor.live_instances monitor);
      Alcotest.(check int) "peak stays 1" 1 (Monitor.peak_instances monitor);
      Alcotest.(check int) "one pass" 1 (Monitor.passes monitor));
    case "non-always property activates a single instance" (fun () ->
      let monitor = Helpers.monitor (prop "eventually(b)") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      Alcotest.(check int) "one activation" 1 (Monitor.activations monitor);
      step monitor 20 (env ~a:true ~b:true);
      Alcotest.(check int) "passed" 1 (Monitor.passes monitor);
      Alcotest.(check int) "none pending" 0 (Monitor.pending monitor)) ]

let failure_cases =
  [ case "failure records activation and failure times" (fun () ->
      let monitor = Helpers.monitor (prop "always(a || next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      (match Monitor.failures monitor with
       | [ f ] ->
         Alcotest.(check int) "activation" 0 f.Monitor.activation_time;
         Alcotest.(check int) "failure" 10 f.Monitor.failure_time;
         Alcotest.(check string) "name" "m" f.Monitor.property_name
       | other -> Alcotest.failf "expected one failure, got %d" (List.length other)));
    case "immediately-false activation is a failure" (fun () ->
      let monitor = Helpers.monitor (prop "always(a)") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "one failure" 1 (List.length (Monitor.failures monitor)));
    case "failures accumulate in order" (fun () ->
      let monitor = Helpers.monitor (prop "always(a)") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:true ~b:false);
      step monitor 20 (env ~a:false ~b:false);
      Alcotest.(check (list int)) "times" [ 0; 20 ]
        (List.map (fun f -> f.Monitor.failure_time) (Monitor.failures monitor)));
    case "simultaneous failures report in activation order (all engines)" (fun () ->
      (* Three instances activated at 0/10/20 collapse into one
         hash-consed state ('b until c') in the interned engine; when
         it fails at 30 the report must still attribute one failure per
         activation, ascending by activation time — independent of the
         internal instance representation. *)
      let env3 ~a ~b ~c =
        lookup_of
          [ ("a", Expr.VBool a); ("b", Expr.VBool b); ("c", Expr.VBool c) ]
      in
      let property = prop "always(a || (b until c))" in
      let shipped =
        let monitor = Helpers.monitor property in
        (Helpers.monitor_step monitor, fun () -> Monitor.failures monitor)
      in
      let reference backend =
        let monitor = Tabv_oracle.Reference_monitor.create backend property in
        ( Tabv_oracle.Reference_monitor.step monitor,
          fun () -> Tabv_oracle.Reference_monitor.failures monitor )
      in
      List.iter
        (fun (step, failures) ->
          step ~time:0 (env3 ~a:false ~b:true ~c:false);
          step ~time:10 (env3 ~a:false ~b:true ~c:false);
          step ~time:20 (env3 ~a:false ~b:true ~c:false);
          step ~time:30 (env3 ~a:true ~b:false ~c:false);
          Alcotest.(check (list (pair int int)))
            "(activation, failure) pairs"
            [ (0, 30); (10, 30); (20, 30) ]
            (List.map
               (fun (f : Monitor.failure) -> (f.activation_time, f.failure_time))
               (failures ())))
        [ shipped; reference `Legacy; reference `Automaton ]) ]

let gating_cases =
  [ case "gated context skips evaluation points entirely" (fun () ->
      let monitor =
        Helpers.monitor (Parser.property_exn ~name:"g" "always(a) @(clk_pos && b)")
      in
      (* b false: the point is excluded; even a=false must not fail. *)
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "no steps" 0 (Monitor.steps monitor);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor));
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "one step" 1 (Monitor.steps monitor);
      Alcotest.(check int) "now it fails" 1 (List.length (Monitor.failures monitor)));
    case "gated transaction context behaves the same" (fun () ->
      let monitor =
        Helpers.monitor (Parser.property_exn ~name:"g" "always(a) @(tb && b)")
      in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 7 (env ~a:true ~b:true);
      Alcotest.(check int) "one step" 1 (Monitor.steps monitor);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor))) ]

let normalisation_cases =
  [ case "implication inputs are normalised internally" (fun () ->
      let monitor = Helpers.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "no failures" 0 (List.length (Monitor.failures monitor)));
    case "timed obligations counted as pending at end" (fun () ->
      let monitor = Helpers.monitor (prop "always(a || nexte[1,170](b)) @tb") in
      step monitor 0 (env ~a:false ~b:false);
      Alcotest.(check int) "pending" 1 (Monitor.pending monitor)) ]

let vacuity_cases =
  [ case "never-fired implication is vacuous" (fun () ->
      let monitor = Helpers.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:false ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check int) "trivial passes" 2 (Monitor.trivial_passes monitor);
      Alcotest.(check bool) "vacuous" true (Monitor.vacuous monitor));
    case "a fired implication is not vacuous" (fun () ->
      let monitor = Helpers.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      Alcotest.(check bool) "not vacuous" false (Monitor.vacuous monitor));
    case "unevaluated monitor is not reported vacuous" (fun () ->
      let monitor = Helpers.monitor (prop "always(a)") in
      Alcotest.(check bool) "not vacuous" false (Monitor.vacuous monitor)) ]

let coverage_cases =
  [ case "coverage summary aggregates monitors" (fun () ->
      let good = Helpers.monitor (prop "always(a)") in
      step good 0 (env ~a:true ~b:false);
      let bad = Helpers.monitor (prop "always(b)") in
      step bad 0 (env ~a:true ~b:false);
      let vac = Helpers.monitor (prop "always(a -> next(b))") in
      step vac 0 (env ~a:false ~b:false);
      let summary = Coverage.summarize [ good; bad; vac ] in
      Alcotest.(check int) "properties" 3 summary.Coverage.properties;
      Alcotest.(check int) "failing" 1 summary.Coverage.failing;
      Alcotest.(check int) "vacuous" 1 summary.Coverage.vacuous;
      Alcotest.(check int) "failures" 1 summary.Coverage.total_failures;
      Alcotest.(check bool) "not clean" false (Coverage.clean summary));
    case "a clean run is clean" (fun () ->
      let monitor = Helpers.monitor (prop "always(a -> next(b))") in
      step monitor 0 (env ~a:true ~b:false);
      step monitor 10 (env ~a:false ~b:true);
      let summary = Coverage.summarize [ monitor ] in
      Alcotest.(check bool) "clean" true (Coverage.clean summary)) ]

(* --- stutter replay ---------------------------------------------------- *)

(* A pool of one over mutable signals, advanced the way the live pool
   stepper advances it: prime once per instant, then [Monitor.advance]
   with the pool's valuation. *)
let replay_fixture source =
  let a = ref false and b = ref false in
  (* Preallocated values, as the DUV resolvers return: the fixture's
     reads must not allocate either. *)
  let vtrue = Expr.VBool true and vfalse = Expr.VBool false in
  let read r () = if !r then vtrue else vfalse in
  let sampler =
    Sampler.create (function
      | "a" -> Some (read a)
      | "b" -> Some (read b)
      | _ -> None)
  in
  let monitor = Monitor.create ~sampler (prop source) in
  let advance time =
    Monitor.advance monitor ~time
      ~valuation:(Sampler.prime_valuation sampler ~time)
  in
  (a, b, sampler, monitor, advance)

let replay_cases =
  [ case "an idle step and its replays allocate nothing" (fun () ->
      let _, _, _, monitor, advance = replay_fixture "always(!a || next(b))" in
      advance 0;
      advance 10;
      let words f =
        let before = Gc.minor_words () in
        f ();
        Gc.minor_words () -. before
      in
      let empty = words (fun () -> ()) in
      let loop =
        words (fun () ->
            for i = 2 to 1001 do
              advance (10 * i)
            done)
      in
      Alcotest.(check (float 0.)) "minor words" empty loop;
      Alcotest.(check int) "every point counted" 1002 (Monitor.steps monitor);
      Alcotest.(check int) "every point passed trivially" 1002
        (Monitor.trivial_passes monitor));
    case "a one-shot property's first step is not replayed" (fun () ->
      let _, _, _, monitor, advance = replay_fixture "(!a || b)" in
      List.iter advance [ 0; 10; 20; 30 ];
      Alcotest.(check int) "steps" 4 (Monitor.steps monitor);
      Alcotest.(check int) "one activation, passed trivially" 1
        (Monitor.passes monitor));
    case "replay moves the sampler and universe counters like stepping"
      (fun () ->
        (* The same points stepped for real (valuation unknown) and
           through the pool's valuation: identical counters.  The timed
           body's activations replay too: its wait counts from the
           step, not from an instant. *)
        let run source replay =
          Progression.reset_universe ();
          let a, b, sampler, monitor, _ = replay_fixture source in
          List.iter
            (fun (time, va, vb) ->
              a := va;
              b := vb;
              let valuation = Sampler.prime_valuation sampler ~time in
              Monitor.advance monitor ~time
                ~valuation:(if replay then valuation else -1))
            [ (0, false, false); (10, false, false); (20, true, false);
              (40, false, true); (50, false, true); (60, false, true);
              (90, false, false); (100, false, false) ];
          let c = Progression.cache_stats () in
          ( Monitor.snapshot monitor,
            (Sampler.queries sampler, Sampler.evals sampler),
            (c.Progression.cache_hits, c.Progression.cache_misses) )
        in
        List.iter
          (fun source ->
            Alcotest.(check bool) source true (run source true = run source false))
          [ "always(!a || next(b))"; "always(!a || nexte[1,20](b))" ]);
    case "a second prime at the same instant returns the first one's bits"
      (fun () ->
        (* A grid pool primes once per monitor: every monitor after the
           first must get the pool valuation too, or it never replays. *)
        let _, b, sampler, _, _ = replay_fixture "always(!a || next(b))" in
        b := true;
        let first = Sampler.prime_valuation sampler ~time:10 in
        Alcotest.(check bool) "first prime packs a valuation" true (first > 0);
        Alcotest.(check int) "second prime" first
          (Sampler.prime_valuation sampler ~time:10);
        (* Once another sampler has overwritten the shared atom slots,
           the bits are no longer what a step would read. *)
        let _, _, other, _, _ = replay_fixture "always(!a || next(b))" in
        ignore (Sampler.prime_valuation other ~time:10);
        Alcotest.(check int) "after another sampler's prime" (-1)
          (Sampler.prime_valuation sampler ~time:10)) ]

let suite =
  ("monitor",
   activation_cases @ failure_cases @ gating_cases @ normalisation_cases
   @ vacuity_cases @ coverage_cases @ replay_cases)
