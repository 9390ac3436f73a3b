open Tabv_duv

(* Negative tests: injected design bugs must be caught by the right
   properties, and only by them. *)

let case name f = Alcotest.test_case name `Quick f

let ops = Workload.des56 ~seed:3 ~count:8 ()

let failing_properties (result : Testbench.run_result) =
  List.filter_map
    (fun (stat : Tabv_obs.Checker_snapshot.t) ->
      if stat.failures <> [] then Some stat.property_name else None)
    result.Testbench.checker_stats

(* One run of [model] over [workload] with [properties] attached and
   [fault_plan] installed, under [guard]. *)
let run ?(properties = []) ?fault_plan ?guard model workload =
  Testbench.run { Testbench.default with properties; fault_plan; guard } model workload

(* Value faults are the catalog's stuck-at saboteurs; only the
   one-cycle-late timing bug is behavioural ([Des56_rtl.fault]). *)
let catalog_plan level name =
  match Duv_fault.plan_for Models.Des56 level name with
  | Some plan -> plan
  | None -> Alcotest.failf "no %s carrier for %s" name (Models.level_name level)

let rtl_cases =
  [ case "late rdy caught by the next[n] properties, tolerated by until" (fun () ->
      let result =
        run ~properties:Des56_props.all
          (Testbench.des56_rtl ~fault:Des56_rtl.Rdy_one_cycle_late ())
          ops
      in
      let failing = failing_properties result in
      List.iter
        (fun expected ->
          Alcotest.(check bool)
            (expected ^ " fails") true (List.mem expected failing))
        [ "p3"; "p5" ];
      (* p2's until does not reference a precise instant (Sec. III-A):
         the response arriving one cycle later still discharges it. *)
      Alcotest.(check bool) "p2 tolerates the extra cycle" false (List.mem "p2" failing);
      (* p4 only watches rdy_next_next_cycle, which is on time. *)
      Alcotest.(check bool) "p4 unaffected" false (List.mem "p4" failing));
    case "stuck rdy_next_cycle caught by p3/p5/p7" (fun () ->
      let result =
        run ~fault_plan:(catalog_plan Models.Rtl "rdy_nc_stuck0")
          ~properties:Des56_props.all (Testbench.des56_rtl ()) ops
      in
      let failing = failing_properties result in
      List.iter
        (fun expected ->
          Alcotest.(check bool)
            (expected ^ " fails") true (List.mem expected failing))
        [ "p3"; "p5"; "p7" ];
      Alcotest.(check bool) "p1 unaffected" false (List.mem "p1" failing);
      Alcotest.(check bool) "p9 unaffected" false (List.mem "p9" failing));
    case "zeroed result caught by p1" (fun () ->
      (* Force indata = 0 so p1's antecedent fires. *)
      let zero_ops = Workload.des56 ~seed:3 ~count:8 ~zero_fraction:1.0 () in
      let result =
        run ~fault_plan:(catalog_plan Models.Rtl "out_stuck0")
          ~properties:Des56_props.all (Testbench.des56_rtl ()) zero_ops
      in
      let failing = failing_properties result in
      Alcotest.(check bool) "p1 fails" true (List.mem "p1" failing);
      Alcotest.(check bool) "p3 unaffected" false (List.mem "p3" failing));
    case "faulty model still computes until the fault point" (fun () ->
      let result =
        run ~fault_plan:(catalog_plan Models.Rtl "rdy_nc_stuck0")
          (Testbench.des56_rtl ()) ops
      in
      Alcotest.(check int) "ops complete" (List.length ops)
        result.Testbench.completed_ops) ]

let tlm_cases =
  [ case "wrong TLM latency caught by the abstracted properties" (fun () ->
      (* A wrongly abstracted model (160 ns instead of 170) makes the
         read-end event land before the instant q1/q3 require: exactly
         the failure Theorem III.2 attributes to a wrong abstraction. *)
      let result =
        run ~properties:(Des56_props.tlm_auto_safe ())
          (Testbench.des56_tlm_at ~latency_ns:160 ())
          ops
      in
      let failing = failing_properties result in
      Alcotest.(check bool) "q3 fails" true (List.mem "q3" failing));
    case "correct TLM latency passes the same properties" (fun () ->
      let result =
        run ~properties:(Des56_props.tlm_auto_safe ()) (Testbench.des56_tlm_at ()) ops
      in
      Alcotest.(check int) "no failures" 0 (Testbench.total_failures result));
    case "slow TLM model also caught" (fun () ->
      let result =
        run ~properties:(Des56_props.tlm_auto_safe ())
          (Testbench.des56_tlm_at ~latency_ns:180 ())
          ops
      in
      Alcotest.(check bool) "failures" true (Testbench.total_failures result > 0)) ]

(* --- generic fault plans (lib/fault + Duv_fault catalog) -------------- *)

module F = Tabv_fault.Fault
module K = Tabv_sim.Kernel
module J = Tabv_core.Report_json
module Detect = Tabv_checker.Detect

(* indata = 0 on every op so the p1/q1 antecedents fire. *)
let zero_ops = Workload.des56 ~seed:3 ~count:8 ~zero_fraction:1.0 ()

let plan_cases =
  [ case "catalog saboteur at RTL is caught by p1" (fun () ->
      let result =
        run ~properties:Des56_props.all
          ~fault_plan:(catalog_plan Models.Rtl "out_stuck0")
          (Testbench.des56_rtl ()) zero_ops
      in
      Alcotest.(check bool) "triggered" true (result.Testbench.faults_triggered > 0);
      Alcotest.(check bool) "p1 fails" true
        (List.mem "p1" (failing_properties result)));
    case "same conceptual fault at TLM-CA is caught by the re-used suite"
      (fun () ->
        let result =
          run ~properties:Des56_props.all
            ~fault_plan:(catalog_plan Models.Tlm_ca "out_stuck0")
            Testbench.des56_tlm_ca zero_ops
        in
        Alcotest.(check bool) "triggered" true
          (result.Testbench.faults_triggered > 0);
        Alcotest.(check bool) "p1 fails" true
          (List.mem "p1" (failing_properties result)));
    case "same conceptual fault at TLM-AT is caught by the abstracted suite"
      (fun () ->
        let result =
          run
            ~properties:(Des56_props.tlm_reviewed ())
            ~fault_plan:(catalog_plan Models.Tlm_at "out_stuck0")
            (Testbench.des56_tlm_at ()) zero_ops
        in
        Alcotest.(check bool) "triggered" true
          (result.Testbench.faults_triggered > 0);
        Alcotest.(check bool) "failures" true
          (Testbench.total_failures result > 0));
    case "never-exercised fault is attributed Latent, not Missed" (fun () ->
      let baseline = run ~properties:Des56_props.all (Testbench.des56_rtl ()) zero_ops in
      let result =
        run ~properties:Des56_props.all
          ~fault_plan:(catalog_plan Models.Rtl "out_stuck0_late")
          (Testbench.des56_rtl ()) zero_ops
      in
      Alcotest.(check int) "never triggered" 0 result.Testbench.faults_triggered;
      let verdicts =
        Detect.classify ~triggered:result.Testbench.faults_triggered
          ~baseline:baseline.Testbench.checker_stats
          ~faulted:result.Testbench.checker_stats
      in
      Alcotest.(check string) "suite verdict" "latent"
        (Detect.verdict_to_string (Detect.summary verdicts)));
    case "installing a plan against a missing carrier is rejected" (fun () ->
      let kernel = K.create () in
      let binding = { F.kernel; signals = []; sockets = [] } in
      let plan =
        F.plan ~name:"bad"
          [ F.Signal_fault
              { signal = "no_such"; fault = F.Stuck_at_0 { from_ns = 0 } } ]
      in
      match F.install binding plan with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

(* --- resilience: every diverging injection ends in a diagnosis -------- *)

let diagnosis_cases =
  [ case "TLM Hang mutator deadlocks into a Starved diagnosis" (fun () ->
      let plan =
        match Duv_fault.hang_plan Models.Des56 Models.Tlm_ca ~index:1 with
        | Some plan -> plan
        | None -> Alcotest.fail "expected a TLM-CA initiator socket"
      in
      let result =
        run ~properties:Des56_props.all ~fault_plan:plan
          ~guard:Tabv_campaign.Qualify.job_guard Testbench.des56_tlm_ca ops
      in
      (match result.Testbench.diagnosis with
       | K.Starved { waiting } ->
         Alcotest.(check bool) "a waiter is blocked" true (waiting >= 1)
       | d ->
         Alcotest.failf "expected starved, got %s" (K.diagnosis_to_string d));
      Alcotest.(check bool) "some ops never completed" true
        (result.Testbench.completed_ops < List.length ops));
    case "chaos crash is contained into a Process_crashed diagnosis" (fun () ->
      let result =
        run ~properties:Des56_props.all
          ~fault_plan:(Duv_fault.crash_plan ~at_ns:45 ~name:"test_crash")
          ~guard:Tabv_campaign.Qualify.job_guard (Testbench.des56_rtl ()) ops
      in
      match result.Testbench.diagnosis with
      | K.Process_crashed { name; _ } ->
        Alcotest.(check string) "attributed" "test_crash" name
      | d ->
        Alcotest.failf "expected process_crashed, got %s"
          (K.diagnosis_to_string d));
    case "chaos livelock trips the delta cap into a Livelock diagnosis"
      (fun () ->
        let result =
          run ~properties:Des56_props.all
            ~fault_plan:(Duv_fault.livelock_plan ~at_ns:45)
            ~guard:Tabv_campaign.Qualify.job_guard (Testbench.des56_rtl ()) ops
        in
        match result.Testbench.diagnosis with
        | K.Livelock { time; _ } -> Alcotest.(check int) "at injection" 45 time
        | d ->
          Alcotest.failf "expected livelock, got %s" (K.diagnosis_to_string d));
    case "run diagnosis is surfaced in the metrics JSON" (fun () ->
      let result = run ~properties:Des56_props.all (Testbench.des56_rtl ()) ops in
      let doc = J.of_string (J.to_string (Testbench.metrics_json result)) in
      let run_section =
        match J.member "run" doc with
        | Some section -> section
        | None -> Alcotest.fail "no run section"
      in
      (match J.member "diagnosis" run_section with
       | Some diagnosis ->
         Alcotest.(check bool) "kind" true
           (J.member "kind" diagnosis = Some (J.String "completed"))
       | None -> Alcotest.fail "no diagnosis in the run section");
      Alcotest.(check bool) "faults_triggered" true
        (J.member "faults_triggered" run_section = Some (J.Int 0))) ]

let hard_failure_cases =
  [ case "hard-failure names round-trip and unknown names are refused" (fun () ->
      List.iter
        (fun failure ->
          match F.hard_failure_of_name (F.hard_failure_name failure) with
          | Some round ->
            Alcotest.(check bool)
              (F.hard_failure_name failure ^ " round-trips")
              true (round = failure)
          | None ->
            Alcotest.failf "%s did not round-trip" (F.hard_failure_name failure))
        [ F.Abort; F.Alloc_storm; F.Busy_loop ];
      match F.hard_failure_of_name "segv" with
      | None -> ()
      | Some _ -> Alcotest.fail "accepted an unknown hard-failure name") ]

(* --- wire/transport fault plans (Fault.Net) --------------------------- *)

module N = F.Net

(* A versioned frame like every serve socket carries. *)
let net_frame payload = Tabv_core.Frame.encode ~version:1 payload

(* Concatenated bytes a fault-aware sender would actually write, up to
   (and excluding anything after) the first [`Reset]. *)
let written_bytes actions =
  let buf = Buffer.create 64 in
  let rec go = function
    | [] -> false
    | `Reset :: _ -> true
    | `Chunk s :: rest -> Buffer.add_string buf s; go rest
    | `Delay_ms _ :: rest -> go rest
  in
  let reset = go actions in
  (Buffer.contents buf, reset)

let net_cases =
  [ case "net generation is a pure function of the seed" (fun () ->
      let gen seed = N.generate ~seed ~frames:10 ~count:8 in
      Alcotest.(check bool) "same seed, same plan" true (gen 7 = gen 7);
      Alcotest.(check bool) "different seeds differ" true (gen 7 <> gen 8));
    case "an unfaulted frame passes through verbatim" (fun () ->
      let armed = N.arm N.no_faults in
      let frame = net_frame "hello" in
      Alcotest.(check bool) "exactly one plain chunk" true
        (N.apply armed frame = [ `Chunk frame ]);
      Alcotest.(check int) "counted" 1 (N.frames_sent armed);
      Alcotest.(check int) "nothing triggered" 0 (N.net_triggered armed));
    case "structure-preserving faults conserve the frame bytes" (fun () ->
      (* Torn and slow-loris sends reshape the writes, not the bytes:
         the concatenation must be the exact frame.  (This is the
         invariant whose violation would turn a chaos client into a
         client that silently sends nothing.) *)
      List.iter
        (fun (name, fault, copies) ->
          let armed = N.arm (N.plan ~name [ fault ]) in
          let frame = net_frame "payload-under-test" in
          let bytes, reset = written_bytes (N.apply armed frame) in
          Alcotest.(check string)
            (name ^ " conserves the frame")
            (String.concat "" (List.init copies (fun _ -> frame)))
            bytes;
          Alcotest.(check bool) (name ^ " never resets") false reset;
          Alcotest.(check int) (name ^ " triggered") 1 (N.net_triggered armed))
        [ ("torn", N.Torn_frame { frame = 0; pieces = 4 }, 1);
          ("slow-loris", N.Slow_loris { frame = 0; delay_ms = 1 }, 1);
          ("delay", N.Delay_frame { frame = 0; delay_ms = 1 }, 1);
          ("duplicate", N.Duplicate_frame { frame = 0 }, 2) ]);
    case "structural faults send a strict mangling and then reset" (fun () ->
      let frame = net_frame "payload-under-test" in
      List.iter
        (fun (name, fault) ->
          let armed = N.arm (N.plan ~name [ fault ]) in
          let bytes, reset = written_bytes (N.apply armed frame) in
          Alcotest.(check bool) (name ^ " ends in a reset") true reset;
          Alcotest.(check bool)
            (name ^ " writes less than, or a corruption of, the frame")
            true
            (bytes <> frame && String.length bytes <= String.length frame))
        [ ("truncated-header", N.Truncated_header { frame = 0; keep = 4 });
          ("corrupt-length", N.Corrupt_length { frame = 0; digit = 5 });
          ("corrupt-version", N.Corrupt_version { frame = 0 });
          ("reset-mid-frame", N.Reset_mid_frame { frame = 0; after = 7 }) ]);
    case "handshake garbage precedes frame 0 only and is never hex" (fun () ->
      let armed =
        N.arm (N.plan ~name:"hs" [ N.Handshake_garbage { bytes = 16 } ])
      in
      let frame = net_frame "first" in
      (match N.apply armed frame with
       | `Chunk garbage :: rest ->
         Alcotest.(check int) "requested garbage size" 16
           (String.length garbage);
         Alcotest.(check bool) "reader fails on the first byte" false
           (String.contains "0123456789abcdef" garbage.[0]);
         let bytes, reset = written_bytes rest in
         Alcotest.(check string) "the real frame follows" frame bytes;
         Alcotest.(check bool) "no reset" false reset
       | _ -> Alcotest.fail "expected a garbage prelude");
      Alcotest.(check bool) "frame 1 is clean" true
        (N.apply armed (net_frame "second") = [ `Chunk (net_frame "second") ]));
    case "latent faults never trigger and the counters say so" (fun () ->
      let armed =
        N.arm (N.plan ~name:"latent" [ N.Torn_frame { frame = 99; pieces = 2 } ])
      in
      for i = 0 to 4 do
        let frame = net_frame (string_of_int i) in
        Alcotest.(check bool) "clean passthrough" true
          (N.apply armed frame = [ `Chunk frame ])
      done;
      Alcotest.(check int) "five frames counted" 5 (N.frames_sent armed);
      Alcotest.(check int) "one fault armed" 1 (N.armed_faults armed);
      Alcotest.(check int) "zero triggered" 0 (N.net_triggered armed));
    case "generated net plans conserve bytes on every non-reset frame" (fun () ->
      (* Sweep several seeds through a whole client lifetime: whatever
         the drawn faults, a frame's written bytes must be the frame
         itself (possibly doubled, possibly after garbage) unless the
         actions end in a reset — a reset is the only licence to write
         fewer or different bytes. *)
      List.iter
        (fun seed ->
          let armed = N.arm (N.generate ~seed ~frames:10 ~count:8) in
          for i = 0 to 11 do
            let frame = net_frame (Printf.sprintf "frame-%d-%d" seed i) in
            let bytes, reset = written_bytes (N.apply armed frame) in
            if not reset then
              let ok =
                bytes = frame
                || bytes = frame ^ frame
                || (String.length bytes > String.length frame
                    && String.ends_with ~suffix:frame bytes)
              in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d frame %d conserves bytes" seed i)
                true ok
          done)
        [ 1; 2; 3; 4; 5 ]) ]

(* --- qualification campaign ------------------------------------------- *)

let qualify_cases =
  [ Alcotest.test_case "qualification reports are worker-count independent"
      `Slow (fun () ->
        let open Tabv_campaign in
        let report workers =
          J.to_string
            (Qualify.report_json
               (Qualify.run ~workers ~duv:Models.Des56
                  ~levels:[ Models.Rtl; Models.Tlm_ca ] ~seed:1 ~ops:8 ()))
        in
        Alcotest.(check string) "1 worker = 4 workers" (report 1) (report 4));
    Alcotest.test_case "RTL detections carry over to TLM-CA (re-use claim)"
      `Slow (fun () ->
        let open Tabv_campaign in
        let report =
          Qualify.run ~workers:2 ~duv:Models.Des56
            ~levels:[ Models.Rtl; Models.Tlm_ca ] ~seed:1 ~ops:40 ()
        in
        Alcotest.(check (list string)) "no cross-level regressions" []
          report.Qualify.regressions;
        Alcotest.(check bool) "resilience scenarios all matched" true
          (List.for_all (fun s -> s.Qualify.matched) report.Qualify.resilience);
        Alcotest.(check bool) "ok" true (Qualify.ok report);
        List.iter
          (fun (lr : Qualify.level_report) ->
            Alcotest.(check bool)
              (Models.level_name lr.Qualify.level ^ " detects something")
              true (lr.Qualify.detected > 0);
            Alcotest.(check bool)
              (Models.level_name lr.Qualify.level ^ " clean baseline")
              true
              (lr.Qualify.baseline_failures = 0
               && lr.Qualify.baseline_diagnosis = K.Completed))
          report.Qualify.levels) ]

let suite =
  ( "fault_injection",
    rtl_cases @ tlm_cases @ plan_cases @ diagnosis_cases @ hard_failure_cases
    @ net_cases @ qualify_cases )
