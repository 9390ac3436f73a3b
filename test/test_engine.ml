open Tabv_sim
open Tabv_duv

(* Cross-engine equivalence: the compiled (static-schedule) kernel
   engine must be observationally indistinguishable from the classic
   dynamic reference — same outcomes, same counters, byte-identical
   observability documents — on every DUV model, on fused-block corner
   cases (stop and crash containment mid-block), and on randomly
   generated elaborated netlists with double writes. *)

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- all nine DUV testbenches -------------------------------------- *)

(* One document per (model, engine): reset the process-global checker
   universe before each run so the engine cache statistics embedded in
   the document are run-local and comparable. *)
let duv_documents () =
  let des_ops = Workload.des56 ~seed:42 ~count:60 () in
  let cc_bursts = Workload.colorconv ~seed:42 ~count:400 () in
  let mc_ops = Workload.memctrl ~seed:42 ~count:60 () in
  let doc run sim_engine =
    Tabv_checker.Progression.reset_universe ();
    let metrics = Tabv_obs.Metrics.create ~enabled:true () in
    Tabv_core.Report_json.to_string
      (Testbench.metrics_json (run ~metrics ~sim_engine))
  in
  [ ( "des56-rtl",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_des56_rtl ~metrics ~sim_engine
              ~properties:Des56_props.all des_ops)
          e );
    ( "des56-tlm-ca",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_des56_tlm_ca ~metrics ~sim_engine
              ~properties:Des56_props.all des_ops)
          e );
    ( "des56-tlm-at",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_des56_tlm_at ~metrics ~sim_engine
              ~properties:(Des56_props.tlm_auto_safe ()) des_ops)
          e );
    ( "des56-tlm-lt",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_des56_tlm_lt ~metrics ~sim_engine
              ~properties:(Des56_props.tlm_auto_safe ()) des_ops)
          e );
    ( "colorconv-rtl",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_colorconv_rtl ~metrics ~sim_engine
              ~properties:Colorconv_props.all cc_bursts)
          e );
    ( "colorconv-tlm-ca",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_colorconv_tlm_ca ~metrics ~sim_engine
              ~properties:Colorconv_props.all cc_bursts)
          e );
    ( "colorconv-tlm-at",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Testbench.run_colorconv_tlm_at ~metrics ~sim_engine
              ~properties:(Colorconv_props.tlm_auto_safe ()) cc_bursts)
          e );
    ( "memctrl-rtl",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Memctrl_testbench.run_rtl ~metrics ~sim_engine
              ~properties:Memctrl_props.all mc_ops)
          e );
    ( "memctrl-tlm-at",
      fun e ->
        doc
          (fun ~metrics ~sim_engine ->
            Memctrl_testbench.run_tlm_at ~metrics ~sim_engine
              ~properties:(Memctrl_props.tlm_auto_safe ()) mc_ops)
          e ) ]

let duv_cases =
  [ case "all DUV documents are byte-identical across engines" (fun () ->
      List.iter
        (fun (model, doc) ->
          Alcotest.(check string) model (doc Kernel.Classic) (doc Kernel.Compiled))
        (duv_documents ()));
    case "outcomes match across engines and seeds" (fun () ->
      List.iter
        (fun seed ->
          let ops = Workload.des56 ~seed ~count:40 () in
          let run e =
            let r =
              Testbench.run_des56_rtl ~sim_engine:e ~properties:Des56_props.all
                ops
            in
            ( r.Testbench.sim_time_ns,
              r.Testbench.kernel_activations,
              r.Testbench.delta_cycles,
              r.Testbench.completed_ops,
              r.Testbench.outputs,
              Testbench.total_failures r )
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d" seed)
            true
            (run Kernel.Classic = run Kernel.Compiled))
        [ 1; 7; 42 ]) ]

(* --- VCD byte-identity --------------------------------------------- *)

let vcd_cases =
  [ case "recorded trace dumps to byte-identical VCD on both engines" (fun () ->
      let ops = Workload.des56 ~seed:42 ~count:30 () in
      let vcd e =
        let r = Testbench.run_des56_rtl ~sim_engine:e ~record_trace:true ops in
        let trace =
          match r.Testbench.trace with
          | Some t -> t
          | None -> Alcotest.fail "no trace recorded"
        in
        let path = Filename.temp_file "tabv_engine" ".vcd" in
        Trace_dump.to_file trace path;
        let contents = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        contents
      in
      Alcotest.(check string) "vcd" (vcd Kernel.Classic) (vcd Kernel.Compiled)) ]

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

(* --- fused activation blocks --------------------------------------- *)

(* [procs] clocked processes on one edge event bump a shared cell; on
   the compiled engine they run as one fused block, so stop and crash
   containment mid-block must behave exactly like the classic
   per-action loop. *)
let fused_fixture engine ~procs ~behaviour =
  let kernel = Kernel.create ~engine () in
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

let fused_cases =
  [ case "stop mid-block halts like the classic per-action loop" (fun () ->
      let run engine =
        let kernel, _, hits =
          fused_fixture engine ~procs:8 ~behaviour:(fun k p ->
              if p = 2 then Kernel.stop k)
        in
        ignore (Kernel.run ~until:100 kernel);
        (!hits, Kernel.activation_count kernel)
      in
      Alcotest.(check (pair int int))
        "hits and activations" (run Kernel.Classic) (run Kernel.Compiled));
    case "a crash mid-block is contained and attributed identically" (fun () ->
      let run engine =
        let kernel, _, hits =
          fused_fixture engine ~procs:8 ~behaviour:(fun _ p ->
              if p = 3 then failwith "boom")
        in
        let guard = { Kernel.default_guard with contain_crashes = true } in
        ignore (Kernel.run ~until:40 kernel ~guard);
        ( !hits,
          Kernel.activation_count kernel,
          Kernel.contained_crash_count kernel,
          Kernel.diagnosis_to_string (Kernel.last_diagnosis kernel) )
      in
      let classic = run Kernel.Classic and compiled = run Kernel.Compiled in
      Alcotest.(check bool) "identical" true (classic = compiled);
      let _, _, crashes, diagnosis = compiled in
      Alcotest.(check bool) "at least one crash" true (crashes > 0);
      Alcotest.(check bool) "attributed to p3" true (contains diagnosis "p3"));
    case "a late subscriber invalidates the fused view" (fun () ->
      (* Subscribing to a fused event after compilation must fall back
         to per-handler scheduling, keeping old and new handlers firing
         in registration order. *)
      let kernel, clock, hits =
        fused_fixture Kernel.Compiled ~procs:4 ~behaviour:(fun _ _ -> ())
      in
      ignore (Kernel.run ~until:14 kernel);
      let cycles1 = !hits / 4 in
      Alcotest.(check bool) "at least one cycle ran" true (cycles1 >= 1);
      let seen = ref 0 in
      Event.on_event (Clock.posedge clock) (fun () -> incr seen);
      ignore (Kernel.run ~until:54 kernel);
      let cycles2 = (!hits / 4) - cycles1 in
      Alcotest.(check bool) "more cycles ran" true (cycles2 >= 1);
      Alcotest.(check int) "old handlers kept firing" 0 (!hits mod 4);
      Alcotest.(check int) "new handler fired every cycle" cycles2 !seen) ]

(* --- random netlists (schedule vs dynamic reference) ---------------- *)

(* A random acyclic elaborated netlist: process [i] is sensitive
   either to the clock or to signals written by lower-numbered
   processes (so zero-delay cycles are impossible by construction),
   and writes its own output signal twice per activation — the second
   write must find the pending-update flag the first one set, so both
   engines apply one update action per signal per delta. *)
let netlist_spec =
  QCheck.make
    ~print:(fun spec ->
      String.concat ";"
        (List.map
           (fun deps ->
             "["
             ^ String.concat "," (List.map string_of_int deps)
             ^ "]")
           spec))
    QCheck.Gen.(
      let dep_list i =
        if i = 0 then return []
        else list_size (int_bound (min i 3)) (int_bound (i - 1))
      in
      sized_size (int_range 1 12) (fun n ->
          let rec build i acc =
            if i >= n then return (List.rev acc)
            else dep_list i >>= fun deps -> build (i + 1) (deps :: acc)
          in
          build 0 []))

let run_random_netlist engine spec =
  let kernel = Kernel.create ~engine () in
  let el = Elab.create kernel in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let outputs =
    List.mapi (fun i _ -> Elab.signal_int el (Printf.sprintf "n%d" i)) spec
  in
  let out = Array.of_list outputs in
  List.iteri
    (fun i deps ->
      let inputs = List.sort_uniq compare deps in
      let sensitivity =
        if inputs = [] then [ Clock.posedge clock ]
        else List.map (fun j -> Signal.changed out.(j)) inputs
      in
      Elab.process el
        ~name:(Printf.sprintf "proc%d" i)
        ~pos:__POS__ ~initialize:false ~sensitivity
        ~writes:[ Elab.Pack out.(i) ]
        (fun () ->
          let acc =
            List.fold_left (fun acc j -> acc + Signal.read out.(j)) 1 inputs
          in
          let v = Signal.read out.(i) in
          Signal.write out.(i) (v + 1);
          Signal.write out.(i) (v + acc)))
    spec;
  ignore (Kernel.run ~until:100 kernel);
  ( List.map Signal.observe outputs,
    Kernel.activation_count kernel,
    Kernel.delta_count kernel,
    Kernel.update_action_count kernel,
    Kernel.now kernel )

let random_cases =
  [ Helpers.qtest ~count:100 "random netlist: compiled = classic" netlist_spec
      (fun spec ->
        run_random_netlist Kernel.Classic spec
        = run_random_netlist Kernel.Compiled spec) ]

(* --- checker pools ----------------------------------------------------- *)

let engines = [ ("classic", Kernel.Classic); ("compiled", Kernel.Compiled) ]
let containing_guard = { Kernel.default_guard with contain_crashes = true }

let pool_cases =
  List.map
    (fun (name, engine) ->
      case ("containing is set during a containing run, " ^ name) (fun () ->
          let seen = ref [] in
          let run guard =
            let kernel = Kernel.create ~engine () in
            Kernel.schedule_at kernel ~time:5 (fun () ->
                seen := Kernel.containing kernel :: !seen);
            ignore (Kernel.run ?guard kernel);
            Kernel.containing kernel
          in
          Alcotest.(check bool) "reset after a containing run" false
            (run (Some containing_guard));
          Alcotest.(check bool) "reset after a plain run" false (run None);
          Alcotest.(check (list bool)) "seen during each run" [ false; true ]
            !seen))
    engines
  @ List.map
      (fun (name, engine) ->
        case ("a raising atom fails only the monitors that read it, " ^ name)
          (fun () ->
            (* [rdy + 1 = 1] adds an int to a bool: every read raises.
               The pool primes every atom once per edge, so before a
               raising atom was skipped by the prime it was charged to
               whichever monitor primed first. *)
            let property name source =
              Tabv_psl.Parser.property_exn ~name (source ^ " @clk_pos")
            in
            let good1 = property "good1" "always (!rdy || !rdy_next_cycle)"
            and bad = property "bad" "always (rdy + 1 = 1)"
            and good2 = property "good2" "always (!ds || next[17](rdy))" in
            let ops = Workload.des56 ~seed:3 ~count:4 () in
            let run properties =
              Tabv_checker.Progression.reset_universe ();
              Testbench.run_des56_rtl ~sim_engine:engine ~guard:containing_guard
                ~properties ops
            in
            let stat r name =
              List.find
                (fun (s : Testbench.checker_stat) -> s.property_name = name)
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
               | _ -> false)))
      engines

let suite =
  ( "engine",
    duv_cases @ vcd_cases @ levelization_cases @ fused_cases @ random_cases
    @ pool_cases )
