(* Fault injection: the reused checkers catch both RTL design bugs and
   wrong TLM abstractions.

   Theorem III.2 guarantees that an abstracted property that held at
   RTL can only fail at TLM when the TLM model is not timing
   equivalent to the RTL implementation — so a TLM failure is a
   genuine abstraction bug.  This example demonstrates both directions.

   Run with: dune exec examples/fault_injection.exe *)

open Tabv_duv

let banner title = Printf.printf "\n=== %s ===\n" title

(* Run [model] over [ops] under run record [r] and print the first
   failure of each failing checker. *)
let report r model ops =
  let result = Testbench.run r model ops in
  List.iter
    (fun (stat : Tabv_obs.Checker_snapshot.t) ->
      if stat.failures <> [] then begin
        Printf.printf "  %s: %d failure(s), first:\n" stat.property_name
          (List.length stat.failures);
        match stat.failures with
        | f :: _ -> Format.printf "    %a@." Tabv_checker.Monitor.pp_failure f
        | [] -> ()
      end)
    result.Testbench.checker_stats;
  if Testbench.total_failures result = 0 then print_endline "  no failures"

(* Value faults come from the generic saboteur catalog: a stuck-at-0
   plan installed on the named RTL port through the signal
   interposition hook. *)
let rtl_fault name =
  match Duv_fault.plan_for Models.Des56 Models.Rtl name with
  | Some plan -> plan
  | None -> failwith (name ^ " has no RTL carrier")

let () =
  let ops = Workload.des56 ~seed:99 ~count:50 ~zero_fraction:0.4 () in
  let rtl_checked = { Testbench.default with properties = Des56_props.all } in
  let at_checked =
    { Testbench.default with properties = Des56_props.tlm_reviewed () }
  in

  banner "Healthy RTL model: all 9 properties pass";
  report rtl_checked (Testbench.des56_rtl ()) ops;

  banner "RTL bug: result delivered one cycle late";
  print_endline "  (caught by the next[n] latency properties; the until-based p2";
  print_endline "   tolerates it — until does not count time, Sec. III-A)";
  report rtl_checked (Testbench.des56_rtl ~fault:Des56_rtl.Rdy_one_cycle_late ()) ops;

  banner "RTL bug: rdy_next_cycle stuck low";
  report
    { rtl_checked with fault_plan = Some (rtl_fault "rdy_nc_stuck0") }
    (Testbench.des56_rtl ()) ops;

  banner "RTL bug: datapath zeroes the result";
  report
    { rtl_checked with fault_plan = Some (rtl_fault "out_stuck0") }
    (Testbench.des56_rtl ()) ops;

  banner "Correct TLM-AT abstraction: abstracted properties pass";
  report at_checked (Testbench.des56_tlm_at ()) ops;

  banner "Wrong TLM-AT abstraction: model completes in 160 ns instead of 170";
  print_endline "  (Theorem III.2: the failure proves the TLM model is not timing";
  print_endline "   equivalent to its RTL source)";
  report at_checked (Testbench.des56_tlm_at ~latency_ns:160 ()) ops;

  banner "Wrong TLM-AT abstraction: model completes in 180 ns";
  report at_checked (Testbench.des56_tlm_at ~latency_ns:180 ()) ops
