(* The complete bottom-up reuse flow of the paper on the DES56 IP:

     1. verify the 9 RTL properties on the RTL model;
     2. reuse them unabstracted on the cycle-accurate TLM model
        (possible because one transaction per cycle preserves the
        evaluation points);
     3. abstract them with Methodology III.1 and review the outcome;
     4. verify the reviewed TLM property set on the TLM-AT model.

   Run with: dune exec examples/des56_flow.exe *)

open Tabv_duv

let banner title = Printf.printf "\n=== %s ===\n" title

(* Run [model] over [workload] with [properties] attached and print
   each checker's statistics. *)
let show properties model workload =
  let result = Testbench.run { Testbench.default with properties } model workload in
  List.iter
    (fun stat -> Format.printf "  %a@." Tabv_obs.Checker_snapshot.pp stat)
    result.Testbench.checker_stats;
  let failures = Testbench.total_failures result in
  Printf.printf "  -> %s\n"
    (if failures = 0 then "all checkers passed" else Printf.sprintf "%d FAILURES" failures)

let () =
  let ops = Workload.des56 ~seed:7 ~count:200 () in

  banner "Step 1: RTL ABV (9 properties at the clock edges)";
  show Des56_props.all (Testbench.des56_rtl ()) ops;

  banner "Step 2: unabstracted reuse on TLM-CA (one transaction per cycle)";
  show Des56_props.all Testbench.des56_tlm_ca ops;

  banner "Step 3: automatic abstraction (Methodology III.1)";
  let reports = Des56_props.abstraction_reports () in
  Format.printf "%a@." Tabv_core.Methodology.pp_summary reports;
  print_endline "\n  review-flagged abstractions (Sec. III-B):";
  List.iter
    (fun r ->
      if r.Tabv_core.Methodology.requires_review then
        match r.Tabv_core.Methodology.output with
        | Some q -> Format.printf "    %a@." Tabv_psl.Property.pp q
        | None ->
          Printf.printf "    %s: deleted (protocol-only property)\n"
            r.Tabv_core.Methodology.input.Tabv_psl.Property.name)
    reports;

  banner "Step 4: TLM-AT ABV with the post-review property set";
  show (Des56_props.tlm_reviewed ()) (Testbench.des56_tlm_at ()) ops;

  banner "Why abstraction is needed: raw RTL checkers on TLM-AT misfire";
  let raw =
    List.map
      (fun p ->
        Tabv_psl.Property.make
          ~name:(p.Tabv_psl.Property.name ^ "_raw")
          ~context:(Tabv_psl.Context.Transaction Tabv_psl.Context.Base_trans)
          p.Tabv_psl.Property.formula)
      [ Des56_props.p1; Des56_props.p3 ]
  in
  show raw (Testbench.des56_tlm_at ()) ops
