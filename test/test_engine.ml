open Tabv_sim
open Tabv_duv

(* The kernel's scheduling semantics on elaborated designs: dependency
   levelization and its positioned cycle error, a stop or a contained
   crash partway through the processes woken by one clock edge, late
   subscribers, and the block-runner hooks a checker pool steps
   through. *)

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- levelization -------------------------------------------------- *)

let netlist_chain kernel depth =
  (* clocked root -> comb stage 1 -> ... -> comb stage [depth]: each
     stage is sensitive to the previous stage's output signal. *)
  let el = Elab.create kernel in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let prev = ref (Elab.signal_int el "s0") in
  let root_out = !prev in
  Elab.process el ~name:"root" ~pos:__POS__ ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    ~writes:[ Elab.Pack root_out ]
    (fun () -> Signal.write root_out (Signal.read root_out + 1));
  for i = 1 to depth do
    let input = !prev in
    let output = Elab.signal_int el (Printf.sprintf "s%d" i) in
    Elab.process el
      ~name:(Printf.sprintf "stage%d" i)
      ~pos:__POS__ ~initialize:false
      ~sensitivity:[ Signal.changed input ]
      ~writes:[ Elab.Pack output ]
      (fun () -> Signal.write output (Signal.read input + 1));
    prev := output
  done;
  el

let levelization_cases =
  [ case "a combinational chain levelizes to its depth" (fun () ->
      let kernel = Kernel.create () in
      let el = netlist_chain kernel 5 in
      Alcotest.(check int) "levels" 6 (Elab.levels el));
    case "a register self-loop is not a cycle" (fun () ->
      let kernel = Kernel.create () in
      let el = Elab.create kernel in
      let clock = Clock.create kernel ~name:"clk" ~period:10 () in
      let q = Elab.signal_bool el "q" in
      Elab.process el ~name:"reg" ~pos:__POS__ ~initialize:false
        ~sensitivity:[ Clock.posedge clock ]
        ~writes:[ Elab.Pack q ]
        (fun () -> Signal.write q (not (Signal.read q)));
      Alcotest.(check int) "levels" 1 (Elab.levels el));
    case "a zero-delay cycle raises a positioned elaboration error" (fun () ->
      let kernel = Kernel.create () in
      let el = Elab.create kernel in
      let a = Elab.signal_bool el "a" in
      let b = Elab.signal_bool el "b" in
      Elab.process el ~name:"p_ab" ~pos:__POS__
        ~sensitivity:[ Signal.changed a ]
        ~writes:[ Elab.Pack b ]
        (fun () -> Signal.write b (not (Signal.read a)));
      Elab.process el ~name:"p_ba" ~pos:__POS__
        ~sensitivity:[ Signal.changed b ]
        ~writes:[ Elab.Pack a ]
        (fun () -> Signal.write a (not (Signal.read b)));
      match Elab.compile el with
      | () -> Alcotest.fail "cycle not detected"
      | exception Elab.Cycle_error msg ->
        let mem needle =
          Alcotest.(check bool)
            (Printf.sprintf "message mentions %S" needle)
            true (contains msg needle)
        in
        mem "p_ab";
        mem "p_ba";
        mem "test_engine.ml") ]

(* --- the processes of one clock edge --------------------------------- *)

(* [procs] clocked processes on one edge event (a block: one fire
   schedules them all, in registration order) bump a shared cell. *)
let edge_fixture ~procs ~behaviour =
  let kernel = Kernel.create () in
  let el = Elab.create kernel in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let hits = ref 0 in
  for p = 0 to procs - 1 do
    Elab.process el
      ~name:(Printf.sprintf "p%d" p)
      ~pos:__POS__ ~initialize:false
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
         | _ -> false)) ]

let suite = ("engine", levelization_cases @ block_cases @ pool_cases)
