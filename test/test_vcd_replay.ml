open Tabv_psl
open Tabv_sim

(* The VCD reader, and offline replay of checkers over parsed
   waveforms. *)

let case name f = Alcotest.test_case name `Quick f

let sample_vcd =
  "$date handwritten $end\n\
   $timescale 1ns $end\n\
   $scope module top $end\n\
   $var wire 1 ! ds $end\n\
   $var wire 1 \" rdy $end\n\
   $var wire 8 # data $end\n\
   $upscope $end\n\
   $enddefinitions $end\n\
   #0\n\
   1!\n\
   0\"\n\
   b00101010 #\n\
   #170\n\
   0!\n\
   1\"\n\
   #180\n\
   0\"\n"

let reader_cases =
  [ case "parses a handwritten VCD" (fun () ->
      let parsed = Vcd_reader.parse sample_vcd in
      Alcotest.(check (option string)) "timescale" (Some "1ns")
        parsed.Vcd_reader.timescale;
      Alcotest.(check (list (pair string int)))
        "signals"
        [ ("ds", 1); ("rdy", 1); ("data", 8) ]
        parsed.Vcd_reader.signals;
      Alcotest.(check int) "entries" 3 (Trace.length parsed.Vcd_reader.trace);
      let entry0 = Trace.get parsed.Vcd_reader.trace 0 in
      Alcotest.(check int) "t0" 0 entry0.Trace.time;
      (match Trace.lookup entry0 "ds", Trace.lookup entry0 "data" with
       | Some (Expr.VBool true), Some (Expr.VInt 42) -> ()
       | _ -> Alcotest.fail "wrong entry 0 values");
      (* Sample-and-hold: data keeps 42 at 170 ns. *)
      let entry1 = Trace.get parsed.Vcd_reader.trace 1 in
      (match Trace.lookup entry1 "data", Trace.lookup entry1 "rdy" with
       | Some (Expr.VInt 42), Some (Expr.VBool true) -> ()
       | _ -> Alcotest.fail "wrong entry 1 values"));
    case "x and z bits read as zero" (fun () ->
      let vcd =
        "$var wire 1 ! s $end\n$enddefinitions $end\n#0\nx!\n#10\nz!\n#20\n1!\n"
      in
      let parsed = Vcd_reader.parse vcd in
      let value i =
        match Trace.lookup (Trace.get parsed.Vcd_reader.trace i) "s" with
        | Some (Expr.VBool b) -> b
        | _ -> Alcotest.fail "missing"
      in
      Alcotest.(check bool) "x is 0" false (value 0);
      Alcotest.(check bool) "z is 0" false (value 1);
      Alcotest.(check bool) "then 1" true (value 2));
    case "unknown identifier rejected" (fun () ->
      match Vcd_reader.parse "$enddefinitions $end\n#0\n1!\n" with
      | _ -> Alcotest.fail "expected Parse_error"
      | exception Vcd_reader.Parse_error { line = 3; _ } -> ()
      | exception Vcd_reader.Parse_error _ -> Alcotest.fail "wrong line");
    case "duplicate timestamps merge into one evaluation point" (fun () ->
      let vcd =
        "$var wire 1 ! s $end\n$enddefinitions $end\n#0\n1!\n#10\n0!\n#10\n1!\n#20\n"
      in
      let parsed = Vcd_reader.parse vcd in
      Alcotest.(check int) "entries" 3 (Trace.length parsed.Vcd_reader.trace);
      (* The last change of the merged instant wins. *)
      (match Trace.lookup (Trace.get parsed.Vcd_reader.trace 1) "s" with
       | Some (Expr.VBool true) -> ()
       | _ -> Alcotest.fail "expected merged value"));
    case "time going backwards rejected" (fun () ->
      match
        Vcd_reader.parse "$var wire 1 ! s $end\n$enddefinitions $end\n#10\n#5\n"
      with
      | _ -> Alcotest.fail "expected Parse_error"
      | exception Vcd_reader.Parse_error _ -> ()) ]

let roundtrip_cases =
  [ case "writer output parses back to the same trace" (fun () ->
      let buffer = Buffer.create 256 in
      let vcd = Vcd.create buffer ~timescale:"1ns" in
      let ds = Vcd.add_var vcd ~name:"ds" ~width:1 in
      let out = Vcd.add_var vcd ~name:"out" ~width:16 in
      Vcd.change_bool vcd ~time:0 ds true;
      Vcd.change_int64 vcd ~time:0 out 0L;
      Vcd.change_bool vcd ~time:10 ds false;
      Vcd.change_int64 vcd ~time:170 out 0xBEEFL;
      Vcd.close vcd;
      let path = Filename.temp_file "tabv" ".vcd" in
      Out_channel.with_open_bin path (fun oc ->
          Buffer.output_buffer oc buffer);
      let parsed = Vcd_reader.load path in
      Sys.remove path;
      Alcotest.(check int) "entries" 3 (Trace.length parsed.Vcd_reader.trace);
      (match
         Trace.lookup (Trace.get parsed.Vcd_reader.trace 2) "out"
       with
       | Some (Expr.VInt v) -> Alcotest.(check int) "value" 0xBEEF v
       | _ -> Alcotest.fail "missing out")) ]

let replay = Tabv_checker.Offline.over_trace

let all_passed outcomes =
  List.for_all (fun m -> Tabv_checker.Monitor.failures m = []) outcomes

let replay_cases =
  [ case "replay passes on a conforming waveform" (fun () ->
      let parsed = Vcd_reader.parse sample_vcd in
      let q3 = Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb" in
      let outcomes = replay [ q3 ] parsed.Vcd_reader.trace in
      Alcotest.(check bool) "passed" true (all_passed outcomes));
    case "replay fails on a late waveform" (fun () ->
      let late =
        "$var wire 1 ! ds $end\n$var wire 1 \" rdy $end\n$enddefinitions $end\n\
         #0\n1!\n0\"\n#180\n0!\n1\"\n"
      in
      let parsed = Vcd_reader.parse late in
      let q3 = Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb" in
      let outcomes = replay [ q3 ] parsed.Vcd_reader.trace in
      Alcotest.(check bool) "failed" false (all_passed outcomes));
    case "end-to-end: recorded DES56 trace replays clean" (fun () ->
      (* Record a live simulation trace, then replay the RTL property
         set offline over it. *)
      let ops = Tabv_duv.Workload.des56 ~seed:31 ~count:8 ~zero_fraction:0.5 ~decrypt_fraction:0.5 () in
      let _, trace =
        Helpers.run_traced Tabv_duv.Testbench.default (Tabv_duv.Testbench.des56_rtl ()) ops
      in
      let outcomes = replay Tabv_duv.Des56_props.all trace in
      Alcotest.(check bool) "all pass" true (all_passed outcomes);
      List.iter
        (fun monitor ->
          let property = Tabv_checker.Monitor.property monitor in
          if property.Property.name <> "p8" then
            Alcotest.(check bool)
              (property.name ^ " not vacuous")
              false
              (Tabv_checker.Monitor.vacuous monitor))
        outcomes) ]

let suite = ("vcd_replay", reader_cases @ roundtrip_cases @ replay_cases)
