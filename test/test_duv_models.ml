open Tabv_psl
open Tabv_duv
module Checker_snapshot = Tabv_obs.Checker_snapshot

let case name f = Alcotest.test_case name `Quick f

let des_ops = Workload.des56 ~seed:7 ~count:12 ()
let cc_bursts = Workload.colorconv ~seed:7 ~count:30 ()
let mem_ops = Workload.memctrl ~seed:7 ~count:30 ()

let expected_des_outputs ops =
  List.map
    (fun op ->
      Des.process ~decrypt:op.Des56_iface.decrypt ~key:op.Des56_iface.key
        op.Des56_iface.indata)
    ops

let expected_cc_outputs bursts =
  List.concat_map
    (fun burst -> List.map (fun p -> Testbench.pack_ycbcr (Colorconv.convert p)) burst)
    bursts

let check_outputs name expected (result : Testbench.run_result) =
  Alcotest.(check (list int64)) (name ^ " outputs") expected result.Testbench.outputs

let run ?(properties = []) model workload =
  Testbench.run { Testbench.default with properties } model workload

(* --- functional correctness of every model --- *)

let functional_cases =
  [ case "DES56 RTL computes DES" (fun () ->
      check_outputs "rtl" (expected_des_outputs des_ops) (run (Testbench.des56_rtl ()) des_ops));
    case "DES56 TLM-CA computes DES" (fun () ->
      check_outputs "ca" (expected_des_outputs des_ops) (run Testbench.des56_tlm_ca des_ops));
    case "DES56 TLM-AT computes DES" (fun () ->
      check_outputs "at" (expected_des_outputs des_ops)
        (run (Testbench.des56_tlm_at ()) des_ops));
    case "ColorConv RTL converts pixels" (fun () ->
      check_outputs "rtl" (expected_cc_outputs cc_bursts)
        (run Testbench.colorconv_rtl cc_bursts));
    case "ColorConv TLM-CA converts pixels" (fun () ->
      check_outputs "ca" (expected_cc_outputs cc_bursts)
        (run Testbench.colorconv_tlm_ca cc_bursts));
    case "ColorConv TLM-AT converts pixels" (fun () ->
      check_outputs "at" (expected_cc_outputs cc_bursts)
        (run Testbench.colorconv_tlm_at cc_bursts)) ]

(* --- timing equivalence (Def. III.1), on the traces the one tap
   records --- *)

let traced model workload = snd (Helpers.run_traced Testbench.default model workload)

let entry_env (entry : Trace.entry) = List.sort compare entry.Trace.env

(* RTL and TLM-CA traces agree on every evaluation point.  The RTL
   trace also contains the elaboration-time edge at 0 ns that precedes
   the first TLM frame; align on common instants. *)
let check_timing_equivalent rtl_trace ca_trace =
  let rtl_entries =
    List.filter (fun (e : Trace.entry) -> e.Trace.time >= 10) (Trace.to_list rtl_trace)
  in
  let ca_entries = Trace.to_list ca_trace in
  let rec compare_entries i rtl_list ca_list =
    match rtl_list, ca_list with
    | [], _ | _, [] -> i
    | (re : Trace.entry) :: rtl_rest, (ce : Trace.entry) :: ca_rest ->
      if re.Trace.time <> ce.Trace.time || entry_env re <> entry_env ce then
        Alcotest.failf "traces diverge at common index %d (%dns vs %dns)" i
          re.Trace.time ce.Trace.time
      else compare_entries (i + 1) rtl_rest ca_rest
  in
  let compared = compare_entries 0 rtl_entries ca_entries in
  Alcotest.(check bool) "nonempty" true (compared > 50)

(* Every TLM-AT event instant lies on the RTL clock grid. *)
let check_on_grid at_trace =
  List.iter
    (fun (entry : Trace.entry) ->
      Alcotest.(check int) "on grid" 0 (entry.Trace.time mod 10))
    (Trace.to_list at_trace)

(* At every TLM-AT event instant, each signal the abstraction keeps
   carries the value the RTL trace carries at that instant. *)
let check_preserved ~abstracted_signals rtl_trace at_trace =
  List.iter
    (fun (at_entry : Trace.entry) ->
      match Trace.index_at_time rtl_trace ~from:0 ~time:at_entry.Trace.time with
      | None -> Alcotest.failf "no RTL edge at %dns" at_entry.Trace.time
      | Some i ->
        let rtl_entry = Trace.get rtl_trace i in
        List.iter
          (fun (name, av) ->
            if not (List.mem name abstracted_signals) then
              match Trace.lookup rtl_entry name with
              | Some rv when Expr.equal_value rv av -> ()
              | Some _ -> Alcotest.failf "%s differs at %dns" name at_entry.Trace.time
              | None -> Alcotest.failf "signal %s missing at %dns" name at_entry.Trace.time)
          at_entry.Trace.env)
    (Trace.to_list at_trace)

let timing_equivalence_cases =
  [ case "DES56 RTL and TLM-CA traces are identical" (fun () ->
      check_timing_equivalent
        (traced (Testbench.des56_rtl ()) des_ops)
        (traced Testbench.des56_tlm_ca des_ops));
    case "ColorConv RTL and TLM-CA traces are identical" (fun () ->
      check_timing_equivalent
        (traced Testbench.colorconv_rtl cc_bursts)
        (traced Testbench.colorconv_tlm_ca cc_bursts));
    case "DES56 TLM-AT events are a subset of the RTL clock grid" (fun () ->
      check_on_grid (traced (Testbench.des56_tlm_at ()) des_ops));
    case "DES56 TLM-AT agrees with RTL on the preserved signals (Def. III.1)" (fun () ->
      check_preserved ~abstracted_signals:(Models.abstracted_signals Models.Des56)
        (traced (Testbench.des56_rtl ()) des_ops)
        (traced (Testbench.des56_tlm_at ()) des_ops)) ]

(* The same three Def. III.1 checks on the other DUVs. *)
let more_timing_equivalence_cases =
  [ case "MemCtrl RTL and TLM-CA traces are identical" (fun () ->
      check_timing_equivalent
        (traced Testbench.memctrl_rtl mem_ops)
        (traced Testbench.memctrl_tlm_ca mem_ops));
    case "ColorConv TLM-AT events are a subset of the RTL clock grid" (fun () ->
      check_on_grid (traced Testbench.colorconv_tlm_at cc_bursts));
    case "MemCtrl TLM-AT events are a subset of the RTL clock grid" (fun () ->
      check_on_grid (traced (Testbench.memctrl_tlm_at ()) mem_ops));
    case "ColorConv TLM-AT agrees with RTL on the preserved signals (Def. III.1)"
      (fun () ->
        check_preserved ~abstracted_signals:(Models.abstracted_signals Models.Colorconv)
          (traced Testbench.colorconv_rtl cc_bursts)
          (traced Testbench.colorconv_tlm_at cc_bursts));
    case "MemCtrl TLM-AT agrees with RTL on the preserved signals (Def. III.1)"
      (fun () ->
        check_preserved ~abstracted_signals:(Models.abstracted_signals Models.Memctrl)
          (traced Testbench.memctrl_rtl mem_ops)
          (traced (Testbench.memctrl_tlm_at ()) mem_ops)) ]

(* --- end-to-end ABV: RTL properties hold on the RTL and TLM-CA
   models; abstracted properties hold on the TLM-AT model --- *)

let no_failures name (result : Testbench.run_result) =
  List.iter
    (fun stat ->
      match stat.Checker_snapshot.failures with
      | [] -> ()
      | failure :: _ ->
        Alcotest.failf "%s: %a" name Tabv_checker.Monitor.pp_failure failure)
    result.Testbench.checker_stats

let has_activity (result : Testbench.run_result) =
  List.iter
    (fun stat ->
      if stat.Checker_snapshot.activations = 0 && stat.Checker_snapshot.passes = 0 then
        Alcotest.failf "checker %s never activated" stat.Checker_snapshot.property_name)
    result.Testbench.checker_stats

let abv_cases =
  [ case "all 9 RTL properties hold on DES56 RTL" (fun () ->
      let result = run ~properties:Des56_props.all (Testbench.des56_rtl ()) des_ops in
      no_failures "des56 rtl" result;
      has_activity result);
    case "all 9 RTL properties hold on DES56 TLM-CA (unabstracted reuse)" (fun () ->
      let result = run ~properties:Des56_props.all Testbench.des56_tlm_ca des_ops in
      no_failures "des56 tlm-ca" result;
      has_activity result);
    case "auto-safe abstracted properties hold on DES56 TLM-AT" (fun () ->
      let properties = Des56_props.tlm_auto_safe () in
      Alcotest.(check bool) "some survive" true (List.length properties >= 3);
      let result = run ~properties (Testbench.des56_tlm_at ()) des_ops in
      no_failures "des56 tlm-at" result);
    case "all 12 RTL properties hold on ColorConv RTL" (fun () ->
      let result = run ~properties:Colorconv_props.all Testbench.colorconv_rtl cc_bursts in
      no_failures "colorconv rtl" result;
      has_activity result);
    case "all 12 RTL properties hold on ColorConv TLM-CA" (fun () ->
      let result = run ~properties:Colorconv_props.all Testbench.colorconv_tlm_ca cc_bursts in
      no_failures "colorconv tlm-ca" result);
    case "auto-safe abstracted properties hold on ColorConv TLM-AT" (fun () ->
      let properties = Colorconv_props.tlm_auto_safe () in
      Alcotest.(check bool) "some survive" true (List.length properties >= 3);
      let result = run ~properties Testbench.colorconv_tlm_at cc_bursts in
      no_failures "colorconv tlm-at" result);
    case "unabstracted RTL properties misfire on TLM-AT (paper motivation)" (fun () ->
      (* Reusing p1/p3 without abstraction on the AT model counts
         transactions instead of cycles: next[17] never sees 17 events
         in time, so either failures or stuck instances result.  This
         is the motivating problem of Sec. III-A. *)
      let kernelish =
        run (Testbench.des56_tlm_at ()) des_ops
          ~properties:
            (List.map
               (fun p ->
                 (* Force a transaction context so the wrapper accepts
                    the otherwise unabstracted formula. *)
                 Property.make ~name:(p.Property.name ^ "_raw")
                   ~context:(Context.Transaction Context.Base_trans)
                   p.Property.formula)
               [ Des56_props.p1; Des56_props.p3 ])
      in
      let misbehaved =
        List.exists
          (fun stat ->
            stat.Checker_snapshot.failures <> [] || stat.Checker_snapshot.pending > 0)
          kernelish.Testbench.checker_stats
      in
      Alcotest.(check bool) "misfires" true misbehaved) ]

(* --- online/offline consistency: the wrapper's verdict on a live
   simulation equals the declarative semantics on the recorded
   trace --- *)

(* Online verdict of each checker against the declarative semantics on
   the trace the tap recorded from the same run. *)
let check_consistent ~properties model =
  let result, trace =
    Helpers.run_traced { Testbench.default with properties } model des_ops
  in
  List.iter
    (fun (stat : Checker_snapshot.t) ->
      let property =
        List.find (fun p -> p.Property.name = stat.property_name) properties
      in
      Alcotest.(check bool)
        (stat.property_name ^ " agrees")
        (stat.failures <> [])
        (Tabv_psl.Semantics.violated trace property.Property.formula))
    result.Testbench.checker_stats

let consistency_cases =
  [ case "wrapper verdicts match Semantics on the recorded AT trace" (fun () ->
      check_consistent ~properties:(Des56_props.tlm_auto_safe ())
        (Testbench.des56_tlm_at ()));
    case "same consistency on a wrongly abstracted model" (fun () ->
      check_consistent ~properties:(Des56_props.tlm_auto_safe ())
        (Testbench.des56_tlm_at ~latency_ns:160 ())) ]

(* --- loosely timed: the timing-equivalence boundary --- *)

let lt_cases =
  [ case "TLM-LT still computes DES correctly" (fun () ->
      check_outputs "lt" (expected_des_outputs des_ops) (run Testbench.des56_tlm_lt des_ops));
    case "timed abstracted properties fail on the non-equivalent LT model" (fun () ->
      (* Theorem III.2's precondition (timing equivalence) is violated
         by construction: q3 must flag it. *)
      let result =
        run ~properties:(Des56_props.tlm_auto_safe ()) Testbench.des56_tlm_lt des_ops
      in
      Alcotest.(check bool) "failures" true (Testbench.total_failures result > 0));
    case "boolean-only invariants survive even at LT" (fun () ->
      (* At LT, delivery happens within the strobe call, so rdy
         implies ds at every evaluation point. *)
      let invariant = fst (Models.properties_for Models.Des56_lt None) in
      let result = run ~properties:invariant Testbench.des56_tlm_lt des_ops in
      Alcotest.(check int) "no failures" 0 (Testbench.total_failures result)) ]

(* --- paper q2 on a sparse AT trace: the documented gap --- *)

let q2_cases =
  [ case "q2 (until-based) is not evaluable on the sparse AT trace" (fun () ->
      let reports = Des56_props.abstraction_reports () in
      let q2 =
        match
          List.find_map
            (fun r ->
              match r.Tabv_core.Methodology.output with
              | Some q when q.Property.name = "q2" -> Some q
              | _ -> None)
            reports
        with
        | Some q -> q
        | None -> Alcotest.fail "q2 missing"
      in
      let result = run ~properties:[ q2 ] (Testbench.des56_tlm_at ()) des_ops in
      (* The strict Def. III.3 semantics cannot discharge the until's
         timed operands between transactions; see DESIGN.md. *)
      Alcotest.(check bool) "q2 fails or hangs under the strict wrapper" true
        (Testbench.total_failures result > 0
         || List.exists (fun s -> s.Checker_snapshot.pending > 0) result.Testbench.checker_stats)) ]

(* --- one signal table per model --- *)

(* Checker pools and the trace tap both read a model's one signal
   table, in its order: the order is the trace dictionary's, so it must
   be the DUV's documented signal order at every level. *)
let signal_table_cases =
  [ case "each model's signal table lists its DUV's signals in order" (fun () ->
      List.iter
        (fun (name, m) ->
          let expected =
            match m with
            | Models.Des56_rtl | Des56_ca | Des56_at | Des56_lt ->
              Des56_iface.signal_names
            | Colorconv_rtl | Colorconv_ca | Colorconv_at ->
              Colorconv_iface.signal_names
            | Memctrl_rtl | Memctrl_ca | Memctrl_at -> Memctrl_iface.signal_names
          in
          let (Models.Entry (model, workload)) = Models.entry m in
          let elaborated =
            model.Testbench.elaborate
              (Tabv_sim.Kernel.create ())
              ~gap_cycles:2 ~emit:ignore
              (workload ~seed:1 ~ops:1)
          in
          Alcotest.(check (list string))
            (name ^ " table") expected
            (List.map fst elaborated.Testbench.signals))
        Models.names;
      Alcotest.(check int) "ten models" 10 (List.length Models.names)) ]

let suite =
  ("duv_models",
   functional_cases @ timing_equivalence_cases @ abv_cases @ consistency_cases
   @ lt_cases @ q2_cases @ more_timing_equivalence_cases @ signal_table_cases)
