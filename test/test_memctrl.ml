open Tabv_psl
open Tabv_duv

(* The MemCtrl extension IP: asymmetric write/read latencies through
   the abstraction methodology. *)

let case name f = Alcotest.test_case name `Quick f

let ops = Workload.memctrl ~seed:13 ~count:40 ()
let expected = List.map Int64.of_int (Memctrl_iface.reference_reads ops)

let run ?(properties = []) model =
  Testbench.run { Testbench.default with properties } model ops

let failing (result : Testbench.run_result) =
  List.filter_map
    (fun (stat : Tabv_obs.Checker_snapshot.t) ->
      if stat.failures <> [] then Some stat.property_name else None)
    result.Testbench.checker_stats

let functional_cases =
  [ case "RTL read-back matches the reference memory" (fun () ->
      let result = run Testbench.memctrl_rtl in
      Alcotest.(check (list int64)) "reads" expected result.Testbench.outputs;
      Alcotest.(check int) "ops" (List.length ops) result.Testbench.completed_ops);
    case "TLM-AT read-back matches the reference memory" (fun () ->
      let result = run (Testbench.memctrl_tlm_at ()) in
      Alcotest.(check (list int64)) "reads" expected result.Testbench.outputs);
    case "all 8 RTL properties hold on the RTL model" (fun () ->
      let result = run ~properties:Memctrl_props.all Testbench.memctrl_rtl in
      Alcotest.(check (list string)) "no failures" [] (failing result));
    case "TLM-CA read-back matches the reference memory" (fun () ->
      let result = run Testbench.memctrl_tlm_ca in
      Alcotest.(check (list int64)) "reads" expected result.Testbench.outputs);
    case "all 8 RTL properties reuse unabstracted on TLM-CA" (fun () ->
      let result = run ~properties:Memctrl_props.all Testbench.memctrl_tlm_ca in
      Alcotest.(check (list string)) "no failures" [] (failing result)) ]

let abstraction_cases =
  [ case "abstraction summary: asymmetric latencies give distinct eps" (fun () ->
      let reports = Memctrl_props.abstraction_reports () in
      let eps_of name =
        List.find_map
          (fun r ->
            if r.Tabv_core.Methodology.input.Property.name = name then
              Some
                (List.map
                   (fun s -> s.Tabv_core.Next_substitution.eps)
                   r.Tabv_core.Methodology.substitutions)
            else None)
          reports
      in
      Alcotest.(check (option (list int))) "write latency 20 ns" (Some [ 20 ])
        (eps_of "n1");
      Alcotest.(check (option (list int))) "read latency 30 ns" (Some [ 30 ])
        (eps_of "n2"));
    case "auto-safe set excludes protocol and until properties" (fun () ->
      let names =
        List.map (fun p -> p.Property.name) (Memctrl_props.tlm_auto_safe ())
      in
      Alcotest.(check (list string)) "names" [ "tn1"; "tn2"; "tn4" ] names) ]

let abv_cases =
  [ case "auto-safe abstracted properties hold on TLM-AT" (fun () ->
      let result =
        run ~properties:(Memctrl_props.tlm_auto_safe ()) (Testbench.memctrl_tlm_at ())
      in
      Alcotest.(check (list string)) "no failures" [] (failing result));
    case "wrong write latency caught by tn1 only" (fun () ->
      let result =
        run ~properties:(Memctrl_props.tlm_auto_safe ())
          (Testbench.memctrl_tlm_at ~write_latency_ns:30 ())
      in
      let failed = failing result in
      Alcotest.(check bool) "tn1 fails" true (List.mem "tn1" failed);
      Alcotest.(check bool) "tn2 unaffected" false (List.mem "tn2" failed));
    case "wrong read latency caught by tn2 only" (fun () ->
      let result =
        run ~properties:(Memctrl_props.tlm_auto_safe ())
          (Testbench.memctrl_tlm_at ~read_latency_ns:20 ())
      in
      let failed = failing result in
      Alcotest.(check bool) "tn2 fails" true (List.mem "tn2" failed);
      Alcotest.(check bool) "tn1 unaffected" false (List.mem "tn1" failed)) ]

(* The generator's op lists, pinned by digest against the quadratic
   list-based generator it replaced: the same draws pick the same
   addresses. *)
let render ops =
  String.concat ";"
    (List.map
       (function
         | Memctrl_iface.Write { addr; wdata } -> Printf.sprintf "W%d,%d" addr wdata
         | Memctrl_iface.Read { addr } -> Printf.sprintf "R%d" addr)
       ops)

let workload_cases =
  [ case "workload op lists are pinned" (fun () ->
      List.iter
        (fun (seed, count, digest) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d, %d ops" seed count)
            digest
            (Digest.to_hex
               (Digest.string (render (Workload.memctrl ~seed ~count ())))))
        [ (1, 1, "3081b7e0a3fd035249c89d8f64931283");
          (42, 20, "523d86aeccc5b659d786d9862a11efc2");
          (7, 300, "3f97f3aa2b858f3c9fec5df077029924");
          (13, 2000, "cb675a0c8b80d96812f4a8d17781c517");
          (1, 16000, "b946dc3cf869f8602a3310ce4b928aa8") ]) ]

let suite =
  ("memctrl", functional_cases @ abstraction_cases @ abv_cases @ workload_cases)
