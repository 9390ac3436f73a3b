open Tabv_sim
open Tabv_duv

(* The kernel's scheduling semantics: zero-delay feedback ended by the
   delta-cycle watchdog, a stop or a contained crash partway through
   the processes woken by one clock edge, late subscribers, and the
   block-runner hooks a checker pool steps through. *)

let case name f = Alcotest.test_case name `Quick f

(* --- zero-delay feedback ------------------------------------------- *)

let feedback_cases =
  [ case "a zero-delay cycle raises a perpetual delta loop that the guard ends"
      (fun () ->
        (* Two cross-coupled inverting processes never settle: every
           delta rewrites both signals, so time never advances.  The
           default guard's delta cap ends the run at the first instant. *)
        let kernel = Kernel.create () in
        let a = Signal.create_bool kernel ~name:"a" false in
        let b = Signal.create_bool kernel ~name:"b" false in
        Process.method_process kernel ~name:"p_ab" ~sensitivity:[ Signal.changed a ]
          (fun () -> Signal.write b (not (Signal.read a)));
        Process.method_process kernel ~name:"p_ba" ~sensitivity:[ Signal.changed b ]
          (fun () -> Signal.write a (not (Signal.read b)));
        ignore (Kernel.run kernel ~guard:Kernel.default_guard);
        Alcotest.(check string) "diagnosis" "livelock(time=0,delta_cycles=1000000)"
          (Kernel.diagnosis_to_string (Kernel.last_diagnosis kernel))) ]

(* --- the processes of one clock edge --------------------------------- *)

(* [procs] clocked processes on one edge event (a block: one fire
   schedules them all, in registration order) bump a shared cell. *)
let edge_fixture ~procs ~behaviour =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let hits = ref 0 in
  for p = 0 to procs - 1 do
    Process.method_process kernel
      ~name:(Printf.sprintf "p%d" p)
      ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      (fun () ->
        incr hits;
        behaviour kernel p)
  done;
  (kernel, clock, hits)

let block_cases =
  [ case "stop mid-block halts like the per-action loop: the rest never runs"
      (fun () ->
        (* The first edge's rise is one activation; p0, p1 and p2 run,
           and p2's stop ends the run before p3. *)
        let kernel, _, hits =
          edge_fixture ~procs:8 ~behaviour:(fun k p -> if p = 2 then Kernel.stop k)
        in
        ignore (Kernel.run ~until:100 kernel);
        Alcotest.(check (triple int int int))
          "hits, activations, now" (3, 4, 0)
          (!hits, Kernel.activation_count kernel, Kernel.now kernel));
    case "a crash mid-block is contained and attributed to the raising process"
      (fun () ->
        (* Five edges (0..40 ns) of eight processes, plus five rises and
           four falls; p3 raises on every edge. *)
        let kernel, _, hits =
          edge_fixture ~procs:8 ~behaviour:(fun _ p -> if p = 3 then failwith "boom")
        in
        let guard = { Kernel.default_guard with contain_crashes = true } in
        ignore (Kernel.run ~until:40 kernel ~guard);
        Alcotest.(check (pair int int)) "hits, activations" (40, 49)
          (!hits, Kernel.activation_count kernel);
        Alcotest.(check int) "contained crashes" 5
          (Kernel.contained_crash_count kernel);
        Alcotest.(check string) "diagnosis" {|process_crashed(p3: Failure("boom"))|}
          (Kernel.diagnosis_to_string (Kernel.last_diagnosis kernel)));
    case "a late subscriber invalidates no earlier handler: all fire in order"
      (fun () ->
        (* Subscribing after a first run appends the handler: every later
           edge fires the old handlers, then the new one. *)
        let log = ref [] in
        let kernel, clock, hits =
          edge_fixture ~procs:4 ~behaviour:(fun _ p -> log := p :: !log)
        in
        ignore (Kernel.run ~until:14 kernel);
        Alcotest.(check int) "two edges before the late subscriber" 8 !hits;
        log := [];
        Event.on_event (Clock.posedge clock) (fun () -> log := 4 :: !log);
        ignore (Kernel.run ~until:54 kernel);
        let edge = [ 0; 1; 2; 3; 4 ] in
        Alcotest.(check (list int)) "four edges, registration order"
          (List.concat [ edge; edge; edge; edge ])
          (List.rev !log)) ]

(* --- checker pools ----------------------------------------------------- *)

let containing_guard = { Kernel.default_guard with contain_crashes = true }

let pool_cases =
  [ case "containing is set during a containing run" (fun () ->
      let seen = ref [] in
      let run guard =
        let kernel = Kernel.create () in
        Kernel.schedule_at kernel ~time:5 (fun () ->
            seen := Kernel.containing kernel :: !seen);
        ignore (Kernel.run ?guard kernel);
        Kernel.containing kernel
      in
      Alcotest.(check bool) "reset after a containing run" false
        (run (Some containing_guard));
      Alcotest.(check bool) "reset after a plain run" false (run None);
      Alcotest.(check (list bool)) "seen during each run" [ false; true ] !seen);
    case "a raising atom fails only the monitors that read it" (fun () ->
      (* [rdy + 1 = 1] adds an int to a bool: every read raises.  The
         pool primes every atom once per edge, so before a raising atom
         was skipped by the prime it was charged to whichever monitor
         primed first. *)
      let property name source =
        Tabv_psl.Parser.property_exn ~name (source ^ " @clk_pos")
      in
      let good1 = property "good1" "always (!rdy || !rdy_next_cycle)"
      and bad = property "bad" "always (rdy + 1 = 1)"
      and good2 = property "good2" "always (!ds || next[17](rdy))" in
      let ops = Workload.des56 ~seed:3 ~count:4 () in
      let run properties =
        Tabv_checker.Progression.reset_universe ();
        Testbench.run
          { Testbench.default with properties; guard = Some containing_guard }
          (Testbench.des56_rtl ()) ops
      in
      let stat r name =
        List.find
          (fun (s : Tabv_obs.Checker_snapshot.t) -> s.property_name = name)
          r.Testbench.checker_stats
      in
      let with_bad = run [ good1; bad; good2 ]
      and without = run [ good1; good2 ] in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " snapshot unaffected")
            true
            (stat with_bad name = stat without name))
        [ "good1"; "good2" ];
      Alcotest.(check bool) "the well-typed monitors stepped" true
        ((stat with_bad "good1").steps > 0);
      Alcotest.(check bool) "the crashes were contained" true
        (match with_bad.Testbench.diagnosis with
         | Kernel.Process_crashed _ -> true
         | _ -> false));
    case "a crashing middle monitor is contained and the pool steps on" (fun () ->
      (* One clock-edge pool of three monitors over five posedges (0..40
         ns); the middle one's atom raises at the edge at 20 ns only.
         Activations: five rises, four falls, the two actions that
         break and mend the atom, and per edge one pool action plus
         one per extra monitor. *)
      let open Tabv_checker in
      let kernel = Kernel.create () in
      let clock = Clock.create kernel ~name:"clk" ~period:10 () in
      let broken = ref false in
      let vtrue = Tabv_psl.Expr.VBool true in
      let sampler =
        Sampler.create (function
          | "a" -> Some (fun () -> vtrue)
          | "b" ->
            Some
              (fun () ->
                if !broken then raise (Tabv_psl.Expr.Eval_error "b") else vtrue)
          | _ -> None)
      in
      Kernel.schedule_at kernel ~time:20 (fun () -> broken := true);
      Kernel.schedule_at kernel ~time:21 (fun () -> broken := false);
      let property name source =
        Tabv_psl.Parser.property_exn ~name (source ^ " @clk_pos")
      in
      let checkers =
        Checker.attach
          (Checker.Attach.spec sampler (Checker.Attach.clock_edge clock))
          kernel
          [ property "first" "always a"; property "middle" "always b";
            property "last" "always a" ]
      in
      ignore (Kernel.run ~until:40 ~guard:containing_guard kernel);
      Alcotest.(check (list int)) "steps" [ 5; 5; 5 ]
        (List.map (fun c -> Monitor.steps (Checker.monitor c)) checkers);
      Alcotest.(check (list int)) "passes" [ 5; 4; 5 ]
        (List.map (fun c -> Monitor.passes (Checker.monitor c)) checkers);
      Alcotest.(check int) "contained crashes" 1 (Kernel.contained_crash_count kernel);
      Alcotest.(check int) "activations" 26 (Kernel.activation_count kernel)) ]

let suite = ("engine", feedback_cases @ block_cases @ pool_cases)
