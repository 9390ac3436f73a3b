(* Quickstart: take one RTL property, abstract it with Methodology
   III.1, and check the result on the approximately-timed DES56 model.

   Run with: dune exec examples/quickstart.exe *)

open Tabv_psl
open Tabv_duv

let () =
  (* 1. An RTL property, written exactly as in the paper's Fig. 3. *)
  let p1 =
    Parser.property_exn ~name:"p1"
      "always (!(ds && indata = 0) || next[17](out != 0)) @clk_pos"
  in
  Format.printf "RTL property:  %a@." Property.pp p1;

  (* 2. Abstract it for a TLM model (clock period 10 ns; the TLM-AT
     abstraction removed the two early-warning handshake signals). *)
  let report =
    Tabv_core.Methodology.abstract ~clock_period:10
      ~abstracted_signals:[ "rdy_next_cycle"; "rdy_next_next_cycle" ]
      ~rename:(fun _ -> "q1") p1
  in
  let q1 =
    match report.Tabv_core.Methodology.output with
    | Some q -> q
    | None -> failwith "p1 should survive abstraction"
  in
  Format.printf "TLM property:  %a@." Property.pp q1;
  if report.Tabv_core.Methodology.requires_review then
    print_endline "(flagged for human review)";

  (* 3. Check it dynamically on the TLM-AT model: the checker wrapper
     evaluates q1 at transaction events and verifies out != 0 exactly
     170 ns after each zero-block strobe. *)
  let ops = Workload.des56 ~seed:2024 ~count:100 ~zero_fraction:0.5 () in
  let result =
    Testbench.run
      { Testbench.default with properties = [ q1 ] }
      (Testbench.des56_tlm_at ()) ops
  in
  Printf.printf "simulated %d operations in %d ns of virtual time\n"
    result.Testbench.completed_ops result.Testbench.sim_time_ns;
  List.iter
    (fun stat -> Format.printf "%a@." Tabv_obs.Checker_snapshot.pp stat)
    result.Testbench.checker_stats;
  if Testbench.total_failures result = 0 then
    print_endline "q1 holds on the TLM-AT model — abstraction verified."
  else print_endline "q1 failed: the TLM model does not match its RTL source!"
