open Tabv_psl
open Tabv_duv

(* The grid-mode wrapper extension: evaluating abstracted properties
   on the reference clock grid over the persistent TLM state.  This is
   what makes the paper's until-based q2 checkable on a sparse
   approximately-timed trace (see DESIGN.md). *)

let case name f = Alcotest.test_case name `Quick f

let ops = Workload.des56 ~seed:5 ~count:10 ()

let q_named name =
  match
    List.find_map
      (fun r ->
        match r.Tabv_core.Methodology.output with
        | Some q when q.Property.name = name -> Some q
        | _ -> None)
      (Des56_props.abstraction_reports ())
  with
  | Some q -> q
  | None -> Alcotest.failf "no abstracted property %s" name

(* DES56 TLM-AT over [ops]: [properties] in the strict pool,
   [grid_properties] in the grid pool. *)
let run_at ?(properties = []) ?(grid_properties = []) model =
  Testbench.run { Testbench.default with properties; grid_properties } model ops

let grid_stat name (result : Testbench.run_result) : Tabv_obs.Checker_snapshot.t =
  match
    List.find_opt
      (fun (s : Tabv_obs.Checker_snapshot.t) -> s.property_name = name)
      result.Testbench.checker_stats
  with
  | Some stat -> stat
  | None -> Alcotest.failf "no checker stat for %s" name

let cases =
  [ case "q2 passes under the grid wrapper on TLM-AT" (fun () ->
      let q2 = q_named "q2" in
      let result = run_at ~grid_properties:[ q2 ] (Testbench.des56_tlm_at ()) in
      let stat = grid_stat "q2" result in
      Alcotest.(check int) "no failures" 0 (List.length stat.failures);
      Alcotest.(check bool) "activated" true (stat.activations > 0));
    case "q2 fails under the strict wrapper on the same workload" (fun () ->
      let q2 = q_named "q2" in
      let result = run_at ~properties:[ q2 ] (Testbench.des56_tlm_at ()) in
      let stat = grid_stat "q2" result in
      Alcotest.(check bool) "fails or hangs" true
        (stat.failures <> [] || stat.pending > 0));
    case "grid wrapper also discharges the plain timed properties" (fun () ->
      let result =
        run_at ~grid_properties:(Des56_props.tlm_auto_safe ()) (Testbench.des56_tlm_at ())
      in
      Alcotest.(check int) "no failures" 0 (Testbench.total_failures result));
    case "grid wrapper catches a wrong abstraction too" (fun () ->
      let q2 = q_named "q2" in
      let result =
        run_at ~grid_properties:[ q2; q_named "q3" ]
          (Testbench.des56_tlm_at ~latency_ns:160 ())
      in
      Alcotest.(check bool) "failures" true (Testbench.total_failures result > 0));
    case "grid wrapper evaluates once per clock period" (fun () ->
      let q3 = q_named "q3" in
      let strict = run_at ~properties:[ q3 ] (Testbench.des56_tlm_at ()) in
      let grid = run_at ~grid_properties:[ q3 ] (Testbench.des56_tlm_at ()) in
      let strict_stat = grid_stat "q3" strict in
      let grid_stat = grid_stat "q3" grid in
      (* Grid mode consumes many more evaluation points: every 10 ns
         versus only at transactions. *)
      Alcotest.(check bool) "more steps in grid mode" true
        (grid_stat.passes + grid_stat.activations
         > strict_stat.passes + strict_stat.activations));
    case "rejects clock-context properties" (fun () ->
      let kernel = Tabv_sim.Kernel.create () in
      match
        Tabv_checker.Checker.attach
          (Tabv_checker.Checker.Attach.spec
             (Tabv_checker.Sampler.create (fun _ -> None))
             (Tabv_checker.Checker.Attach.grid ~clock_period:10 ()))
          kernel [ Des56_props.p1 ]
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

let suite = ("grid_wrapper", cases)
