(* The reuse flow on the pipelined ColorConv IP, showcasing the signal
   abstraction rules of Fig. 4: the seven stage-valid flags v1..v7
   disappear in the TLM-AT model, deleting the pipeline-chaining
   properties entirely and rewriting the others.

   Run with: dune exec examples/colorconv_flow.exe *)

open Tabv_duv

let banner title = Printf.printf "\n=== %s ===\n" title

(* Run [model] over [workload] with [properties] attached and print
   each checker's statistics. *)
let show properties model workload =
  let result = Testbench.run { Testbench.default with properties } model workload in
  List.iter
    (fun stat -> Format.printf "  %a@." Tabv_obs.Checker_snapshot.pp stat)
    result.Testbench.checker_stats;
  Printf.printf "  -> %s\n"
    (if Testbench.total_failures result = 0 then "all checkers passed"
     else Printf.sprintf "%d FAILURES" (Testbench.total_failures result))

let () =
  let bursts = Workload.colorconv ~seed:7 ~count:500 () in

  banner "Step 1: RTL ABV (12 properties: latency, pipeline chaining, ranges)";
  show Colorconv_props.all Testbench.colorconv_rtl bursts;

  banner "Step 2: unabstracted reuse on TLM-CA";
  show Colorconv_props.all Testbench.colorconv_tlm_ca bursts;

  banner "Step 3: abstraction — v1..v7 are removed by the AT model";
  let reports = Colorconv_props.abstraction_reports () in
  Format.printf "%a@." Tabv_core.Methodology.pp_summary reports;
  let deleted =
    List.filter (fun r -> r.Tabv_core.Methodology.output = None) reports
  in
  Printf.printf
    "\n  %d pipeline-chaining properties were deleted outright: their whole\n\
    \  semantics lived in the abstracted handshake (Fig. 4, Sec. III-B).\n"
    (List.length deleted);

  banner "Step 4: TLM-AT ABV with the post-review set";
  show (Colorconv_props.tlm_reviewed ()) Testbench.colorconv_tlm_at bursts;

  banner "Detailed report for c12 (black-pixel luma, timed across 8 stages)";
  List.iter
    (fun r ->
      if r.Tabv_core.Methodology.input.Tabv_psl.Property.name = "c12" then
        Format.printf "%a@." Tabv_core.Methodology.pp_report r)
    reports
