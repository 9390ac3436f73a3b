open Tabv_sim

let case name f = Alcotest.test_case name `Quick f

let signal_cases =
  [ case "write visible after update phase" (fun () ->
      let k = Kernel.create () in
      let s = Signal.create k ~name:"s" 0 in
      let seen_before = ref (-1) and seen_after = ref (-1) in
      Kernel.schedule_at k ~time:10 (fun () ->
        Signal.write s 5;
        seen_before := Signal.read s;
        Kernel.schedule_next_delta k (fun () -> seen_after := Signal.read s));
      ignore (Kernel.run k);
      Alcotest.(check int) "old value during evaluation" 0 !seen_before;
      Alcotest.(check int) "new value next delta" 5 !seen_after);
    case "changed event fires on change only" (fun () ->
      let k = Kernel.create () in
      let s = Signal.create k ~name:"s" 0 in
      let changes = ref 0 in
      Event.on_event (Signal.changed s) (fun () -> incr changes);
      Kernel.schedule_at k ~time:10 (fun () -> Signal.write s 1);
      Kernel.schedule_at k ~time:20 (fun () -> Signal.write s 1);
      Kernel.schedule_at k ~time:30 (fun () -> Signal.write s 2);
      ignore (Kernel.run k);
      Alcotest.(check int) "two changes" 2 !changes;
      Alcotest.(check int) "change_count" 2 (Signal.change_count s));
    case "last write in a delta wins" (fun () ->
      let k = Kernel.create () in
      let s = Signal.create k ~name:"s" 0 in
      Kernel.schedule_at k ~time:10 (fun () ->
        Signal.write s 1;
        Signal.write s 2;
        Signal.write s 3);
      ignore (Kernel.run k);
      Alcotest.(check int) "final" 3 (Signal.read s));
    case "custom equality suppresses notification" (fun () ->
      let k = Kernel.create () in
      let s = Signal.create k ~name:"s" ~equal:(fun a b -> abs (a - b) <= 1) 0 in
      let changes = ref 0 in
      Event.on_event (Signal.changed s) (fun () -> incr changes);
      Kernel.schedule_at k ~time:10 (fun () -> Signal.write s 1);
      (* Within tolerance: treated as unchanged. *)
      Kernel.schedule_at k ~time:20 (fun () -> Signal.write s 5);
      ignore (Kernel.run k);
      Alcotest.(check int) "one change" 1 !changes) ]

let clock_cases =
  [ case "edges alternate with the right period" (fun () ->
      let k = Kernel.create () in
      let clock = Clock.create k ~name:"clk" ~period:10 () in
      let pos = ref [] and neg = ref [] in
      Event.on_event (Clock.posedge clock) (fun () -> pos := Kernel.now k :: !pos);
      Event.on_event (Clock.negedge clock) (fun () -> neg := Kernel.now k :: !neg);
      ignore (Kernel.run ~until:32 k);
      Alcotest.(check (list int)) "posedges" [ 0; 10; 20; 30 ] (List.rev !pos);
      Alcotest.(check (list int)) "negedges" [ 5; 15; 25 ] (List.rev !neg));
    case "signal level tracks edges" (fun () ->
      let k = Kernel.create () in
      let clock = Clock.create k ~name:"clk" ~period:10 () in
      let levels = ref [] in
      (* Sample one delta after each edge event, when the level has
         settled. *)
      Event.on_event (Clock.posedge clock) (fun () ->
        Kernel.schedule_next_delta k (fun () ->
          levels := (Kernel.now k, Signal.read (Clock.signal clock)) :: !levels));
      Event.on_event (Clock.negedge clock) (fun () ->
        Kernel.schedule_next_delta k (fun () ->
          levels := (Kernel.now k, Signal.read (Clock.signal clock)) :: !levels));
      ignore (Kernel.run ~until:22 k);
      Alcotest.(check (list (pair int bool)))
        "levels"
        [ (0, true); (5, false); (10, true); (15, false); (20, true) ]
        (List.rev !levels));
    case "odd period rejected" (fun () ->
      let k = Kernel.create () in
      match Clock.create k ~name:"clk" ~period:7 () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
    case "cycle count" (fun () ->
      let k = Kernel.create () in
      let clock = Clock.create k ~name:"clk" ~period:10 () in
      ignore (Kernel.run ~until:95 k);
      Alcotest.(check int) "cycles" 10 (Clock.cycle_count clock)) ]

let tlm_cases =
  [ case "b_transport reaches the target" (fun () ->
      let k = Kernel.create () in
      let received = ref [] in
      let target =
        Tlm.Target.create k ~name:"t" (fun payload ->
          received := payload.Tlm.data :: !received;
          payload.Tlm.data <- Int64.add payload.Tlm.data 1L)
      in
      let initiator = Tlm.Initiator.create k ~name:"i" in
      Tlm.Initiator.bind initiator target;
      Process.spawn k ~name:"driver" (fun () ->
        let payload = Tlm.make_payload ~data:41L Tlm.Write in
        Tlm.Initiator.b_transport initiator payload;
        Alcotest.(check int64) "response" 42L payload.Tlm.data);
      ignore (Kernel.run k);
      Alcotest.(check (list int64)) "received" [ 41L ] !received);
    case "transaction observers see begin and end times" (fun () ->
      let k = Kernel.create () in
      let target =
        Tlm.Target.create k ~name:"t" (fun _payload -> Process.wait_ns k 30)
      in
      let initiator = Tlm.Initiator.create k ~name:"i" in
      Tlm.Initiator.bind initiator target;
      let observed = ref [] in
      Tlm.Initiator.on_transaction initiator (fun transaction ->
        observed := (transaction.Tlm.start_time, transaction.Tlm.end_time) :: !observed);
      Process.spawn k ~name:"driver" (fun () ->
        Process.wait_ns k 10;
        Tlm.Initiator.b_transport initiator (Tlm.make_payload Tlm.Read));
      ignore (Kernel.run k);
      Alcotest.(check (list (pair int int))) "times" [ (10, 40) ] !observed;
      Alcotest.(check int) "count" 1 (Tlm.Initiator.transaction_count initiator));
    case "unbound initiator rejected" (fun () ->
      let k = Kernel.create () in
      let initiator = Tlm.Initiator.create k ~name:"i" in
      match Tlm.Initiator.b_transport initiator (Tlm.make_payload Tlm.Read) with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
    case "double bind rejected" (fun () ->
      let k = Kernel.create () in
      let target = Tlm.Target.create k ~name:"t" ignore in
      let initiator = Tlm.Initiator.create k ~name:"i" in
      Tlm.Initiator.bind initiator target;
      match Tlm.Initiator.bind initiator target with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

let suite = ("signal_clock_tlm", signal_cases @ clock_cases @ tlm_cases)
