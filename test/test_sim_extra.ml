open Tabv_sim

(* Remaining simulation-layer corners: payload defaults, method
   initialization, negative waits, stop/reuse. *)

let case name f = Alcotest.test_case name `Quick f

let cases =
  [ case "payload defaults" (fun () ->
      let payload = Tlm.make_payload Tlm.Read in
      Alcotest.(check int) "address" 0 payload.Tlm.address;
      Alcotest.(check int64) "data" 0L payload.Tlm.data;
      Alcotest.(check bool) "ok" true payload.Tlm.response_ok;
      Alcotest.(check bool) "no extension" true (payload.Tlm.extension = None));
    case "method process initialization runs at elaboration" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let runs = ref 0 in
      Process.method_process k ~name:"m" ~sensitivity:[ ev ] (fun () -> incr runs);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      (* once at elaboration + once on the notification *)
      Alcotest.(check int) "runs" 2 !runs);
    case "method process with initialize:false waits for its event" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let runs = ref 0 in
      Process.method_process k ~name:"m" ~initialize:false ~sensitivity:[ ev ]
        (fun () -> incr runs);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "runs" 1 !runs);
    case "negative thread wait rejected" (fun () ->
      let k = Kernel.create () in
      let failed = ref false in
      Process.spawn k ~name:"t" (fun () ->
        match Process.wait_ns k (-5) with
        | () -> ()
        | exception Invalid_argument _ -> failed := true);
      ignore (Kernel.run k);
      Alcotest.(check bool) "rejected" true !failed);
    case "kernel can run again after stop" (fun () ->
      let k = Kernel.create () in
      let fired = ref [] in
      Kernel.schedule_at k ~time:10 (fun () ->
        fired := 10 :: !fired;
        Kernel.stop k);
      Kernel.schedule_at k ~time:20 (fun () -> fired := 20 :: !fired);
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "first run" [ 10 ] (List.rev !fired);
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "second run drains the rest" [ 10; 20 ]
        (List.rev !fired));
    case "transaction observers fire in registration order" (fun () ->
      let k = Kernel.create () in
      let target = Tlm.Target.create k ~name:"t" ignore in
      let initiator = Tlm.Initiator.create k ~name:"i" in
      Tlm.Initiator.bind initiator target;
      let order = ref [] in
      Tlm.Initiator.on_transaction initiator (fun _ -> order := 1 :: !order);
      Tlm.Initiator.on_transaction initiator (fun _ -> order := 2 :: !order);
      Process.spawn k ~name:"d" (fun () ->
        Tlm.Initiator.b_transport initiator (Tlm.make_payload Tlm.Read));
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !order)) ]

let dump_cases =
  [ case "Trace_dump round-trips through the VCD reader" (fun () ->
      let trace =
        Tabv_psl.Trace.of_list
          [ { Tabv_psl.Trace.time = 0;
              env = [ ("en", Tabv_psl.Expr.VBool true); ("v", Tabv_psl.Expr.VInt 5) ] };
            { Tabv_psl.Trace.time = 20;
              env = [ ("en", Tabv_psl.Expr.VBool false); ("v", Tabv_psl.Expr.VInt 9) ] } ]
      in
      let path = Filename.temp_file "tabv" ".vcd" in
      Trace_dump.to_file trace path;
      let parsed = Vcd_reader.load path in
      Sys.remove path;
      Alcotest.(check int) "entries" 2 (Tabv_psl.Trace.length parsed.Vcd_reader.trace);
      match
        Tabv_psl.Trace.lookup (Tabv_psl.Trace.get parsed.Vcd_reader.trace 1) "v"
      with
      | Some (Tabv_psl.Expr.VInt 9) -> ()
      | _ -> Alcotest.fail "value lost") ]

let lint_cases =
  [ case "unknown_signals flags typos" (fun () ->
      let p =
        Tabv_psl.Parser.property_exn ~name:"p"
          "always (!ds || next(rdyy)) @clk_pos"
      in
      Alcotest.(check (list string)) "unknown" [ "rdyy" ]
        (Tabv_psl.Property.unknown_signals
           ~known:Tabv_duv.Des56_iface.signal_names p)) ]

let isolation_cases =
  [ case "observers of one initiator ignore another's traffic" (fun () ->
      let k = Kernel.create () in
      let target = Tlm.Target.create k ~name:"t" ignore in
      let init_a = Tlm.Initiator.create k ~name:"a" in
      let init_b = Tlm.Initiator.create k ~name:"b" in
      Tlm.Initiator.bind init_a target;
      Tlm.Initiator.bind init_b target;
      let a_seen = ref 0 in
      Tlm.Initiator.on_transaction init_a (fun _ -> incr a_seen);
      Process.spawn k ~name:"d" (fun () ->
        Tlm.Initiator.b_transport init_a (Tlm.make_payload Tlm.Read);
        Tlm.Initiator.b_transport init_b (Tlm.make_payload Tlm.Read);
        Tlm.Initiator.b_transport init_b (Tlm.make_payload Tlm.Read));
      ignore (Kernel.run k);
      Alcotest.(check int) "only a's transaction" 1 !a_seen;
      Alcotest.(check int) "b counted separately" 2
        (Tlm.Initiator.transaction_count init_b)) ]

let trace_api_cases =
  [ case "Trace.filter keeps only matching evaluation points" (fun () ->
      let entry time en = { Tabv_psl.Trace.time; env = [ ("en", Tabv_psl.Expr.VBool en) ] } in
      let trace = Tabv_psl.Trace.of_list [ entry 0 true; entry 10 false; entry 20 true ] in
      let gated =
        Tabv_psl.Trace.filter
          (fun e ->
            match Tabv_psl.Trace.lookup e "en" with
            | Some (Tabv_psl.Expr.VBool b) -> b
            | _ -> false)
          trace
      in
      Alcotest.(check int) "two entries" 2 (Tabv_psl.Trace.length gated);
      Alcotest.(check int) "times preserved" 20
        (Tabv_psl.Trace.time_at gated 1));
    case "Monitor.evaluation_table lists pending timed instants" (fun () ->
      let q3 =
        Tabv_psl.Parser.property_exn ~name:"q3"
          "always (!ds || nexte[1,170](rdy)) @tb"
      in
      let monitor = Helpers.monitor q3 in
      let env ~ds = function
        | "ds" -> Some (Tabv_psl.Expr.VBool ds)
        | "rdy" -> Some (Tabv_psl.Expr.VBool false)
        | _ -> None
      in
      Helpers.monitor_step monitor ~time:0 (env ~ds:true);
      Helpers.monitor_step monitor ~time:40 (env ~ds:true);
      Alcotest.(check (list int)) "table" [ 170; 210 ]
        (Tabv_checker.Monitor.evaluation_table monitor)) ]

let suite =
  ("sim_extra",
   cases @ dump_cases @ lint_cases @ isolation_cases @ trace_api_cases)
