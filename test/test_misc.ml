open Tabv_psl

(* Smaller units: context mapping, VCD output, workload determinism,
   data-word mapping, wrapper sizing. *)

let case name f = Alcotest.test_case name `Quick f

let context_map_cases =
  let check name input expected =
    case name (fun () ->
      Alcotest.check Helpers.context name expected (Tabv_core.Context_map.run input))
  in
  [ check "base clock" (Context.Clock Context.Base_clock)
      (Context.Transaction Context.Base_trans);
    check "posedge" (Context.Clock (Context.Edge Context.Posedge))
      (Context.Transaction Context.Base_trans);
    check "negedge" (Context.Clock (Context.Edge Context.Negedge))
      (Context.Transaction Context.Base_trans);
    check "any edge" (Context.Clock (Context.Edge Context.Any_edge))
      (Context.Transaction Context.Base_trans);
    check "gated edge keeps the gate"
      (Context.Clock (Context.Edge_and (Context.Posedge, Expr.Var "en")))
      (Context.Transaction (Context.Trans_and (Expr.Var "en")));
    check "transaction context unchanged"
      (Context.Transaction (Context.Trans_and (Expr.Var "en")))
      (Context.Transaction (Context.Trans_and (Expr.Var "en"))) ]

let vcd_cases =
  [ case "vcd writer emits a well-formed file" (fun () ->
      let buffer = Buffer.create 256 in
      let vcd = Tabv_sim.Vcd.create buffer ~timescale:"1ns" in
      let clk = Tabv_sim.Vcd.add_var vcd ~name:"clk" ~width:1 in
      let bus = Tabv_sim.Vcd.add_var vcd ~name:"bus" ~width:8 in
      Tabv_sim.Vcd.change_bool vcd ~time:0 clk true;
      Tabv_sim.Vcd.change_int64 vcd ~time:0 bus 0xA5L;
      Tabv_sim.Vcd.change_bool vcd ~time:5 clk false;
      Tabv_sim.Vcd.close vcd;
      let content = Buffer.contents buffer in
      List.iter
        (fun needle ->
          if not
               (List.exists
                  (fun line ->
                    String.length line >= String.length needle
                    && String.sub line 0 (String.length needle) = needle)
                  (String.split_on_char '\n' content))
          then Alcotest.failf "missing line starting with %S" needle)
        [ "$timescale 1ns $end"; "$var wire 1 ! clk $end"; "$var wire 8 \" bus $end";
          "#0"; "#5"; "b10100101 \"" ]);
    case "vcd rejects variables after the header" (fun () ->
      let vcd = Tabv_sim.Vcd.create (Buffer.create 64) ~timescale:"1ns" in
      let v = Tabv_sim.Vcd.add_var vcd ~name:"x" ~width:1 in
      Tabv_sim.Vcd.change_bool vcd ~time:0 v true;
      (match Tabv_sim.Vcd.add_var vcd ~name:"y" ~width:1 with
       | _ -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ()));
    case "vcd rejects time going backwards" (fun () ->
      let vcd = Tabv_sim.Vcd.create (Buffer.create 64) ~timescale:"1ns" in
      let v = Tabv_sim.Vcd.add_var vcd ~name:"x" ~width:1 in
      Tabv_sim.Vcd.change_bool vcd ~time:10 v true;
      (match Tabv_sim.Vcd.change_bool vcd ~time:5 v false with
       | () -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ())) ]

let workload_cases =
  [ case "des56 workload is deterministic per seed" (fun () ->
      let a = Tabv_duv.Workload.des56 ~seed:5 ~count:20 () in
      let b = Tabv_duv.Workload.des56 ~seed:5 ~count:20 () in
      Alcotest.(check bool) "equal" true (a = b);
      let c = Tabv_duv.Workload.des56 ~seed:6 ~count:20 () in
      Alcotest.(check bool) "different seed differs" true (a <> c));
    case "zero_fraction is honoured at the extremes" (fun () ->
      let all_zero = Tabv_duv.Workload.des56 ~seed:1 ~count:50 ~zero_fraction:1.0 () in
      Alcotest.(check bool) "all zero" true
        (List.for_all (fun (op : Tabv_duv.Des56_iface.op) -> op.Tabv_duv.Des56_iface.indata = 0L) all_zero);
      let none_zero = Tabv_duv.Workload.des56 ~seed:1 ~count:50 ~zero_fraction:0.0 () in
      Alcotest.(check bool) "none zero" true
        (List.for_all (fun (op : Tabv_duv.Des56_iface.op) -> op.Tabv_duv.Des56_iface.indata <> 0L) none_zero));
    case "colorconv bursts cover the requested pixel count" (fun () ->
      let bursts = Tabv_duv.Workload.colorconv ~seed:9 ~count:137 () in
      Alcotest.(check int) "total" 137
        (List.fold_left (fun acc b -> acc + List.length b) 0 bursts);
      Alcotest.(check bool) "burst sizes within bound" true
        (List.for_all (fun b -> List.length b >= 1 && List.length b <= 8) bursts)) ]

let data_cases =
  [ case "int_of_data preserves the zero test" (fun () ->
      Alcotest.(check int) "zero" 0 (Tabv_duv.Duv_util.int_of_data 0L);
      Alcotest.(check bool) "min_int64 not zero" true
        (Tabv_duv.Duv_util.int_of_data Int64.min_int <> 0);
      Alcotest.(check bool) "arbitrary not zero" true
        (Tabv_duv.Duv_util.int_of_data 0x8000000000000000L <> 0));
    Helpers.qtest ~count:200 "int_of_data zero-equivalence"
      (QCheck.make QCheck.Gen.(map Int64.of_int int))
      (fun v -> Tabv_duv.Duv_util.int_of_data v = 0 = (v = 0L)) ]

let wrapper_sizing_cases =
  [ case "array_size matches the paper's q3 example" (fun () ->
      let kernel = Tabv_sim.Kernel.create () in
      let initiator = Tabv_sim.Tlm.Initiator.create kernel ~name:"i" in
      let q3 =
        Parser.property_exn ~name:"q3" "always (!ds || nexte[1,170](rdy)) @tb"
      in
      let wrapper =
        match
          Tabv_checker.Checker.attach
            (Tabv_checker.Checker.Attach.spec
               (Tabv_checker.Sampler.create (fun _ -> None))
               (Tabv_checker.Checker.Attach.transaction initiator))
            kernel [ q3 ]
        with
        | [ wrapper ] -> wrapper
        | _ -> Alcotest.fail "one checker per property"
      in
      Alcotest.(check int) "17 slots" 17
        (Tabv_checker.Checker.array_size wrapper ~clock_period:10));
    case "array_size rounds up" (fun () ->
      let kernel = Tabv_sim.Kernel.create () in
      let initiator = Tabv_sim.Tlm.Initiator.create kernel ~name:"i" in
      let q =
        Parser.property_exn ~name:"q" "always (!ds || nexte[1,25](rdy)) @tb"
      in
      let wrapper =
        match
          Tabv_checker.Checker.attach
            (Tabv_checker.Checker.Attach.spec
               (Tabv_checker.Sampler.create (fun _ -> None))
               (Tabv_checker.Checker.Attach.transaction initiator))
            kernel [ q ]
        with
        | [ wrapper ] -> wrapper
        | _ -> Alcotest.fail "one checker per property"
      in
      Alcotest.(check int) "3 slots" 3
        (Tabv_checker.Checker.array_size wrapper ~clock_period:10)) ]

let json_cases =
  let open Tabv_core.Report_json in
  [ case "json escaping" (fun () ->
      Alcotest.(check string) "escaped"
        {|{"s":"a\"b\\c\nd","n":-3,"b":true,"x":null,"l":[1,2]}|}
        (to_string
           (Assoc
              [ ("s", String "a\"b\\c\nd"); ("n", Int (-3)); ("b", Bool true);
                ("x", Null); ("l", List [ Int 1; Int 2 ]) ])));
    case "control characters become \\u escapes" (fun () ->
      Alcotest.(check string) "u-escape" {|"\u0001"|} (to_string (String "\x01")));
    case "report json carries the q1 substitution" (fun () ->
      let reports = Tabv_duv.Des56_props.abstraction_reports () in
      let json = to_string (of_reports reports) in
      List.iter
        (fun needle ->
          if not
               (let nl = String.length needle and hl = String.length json in
                let rec scan i =
                  i + nl <= hl && (String.sub json i nl = needle || scan (i + 1))
                in
                scan 0)
          then Alcotest.failf "missing %S in JSON output" needle)
        [ {|"clock_period_ns":10|}; {|"eps_ns":170|}; {|"name":"q1"|};
          {|"classification":"weakened"|}; {|"requires_review":true|};
          {|"needs_dense_trace":true|} ]) ]

let suite =
  ("misc",
   context_map_cases @ vcd_cases @ workload_cases @ data_cases @ wrapper_sizing_cases
   @ json_cases)
