open Tabv_psl
open Tabv_sim

(* Named-clock contexts: parsing, mapping, and an end-to-end dual-clock
   design. *)

let case name f = Alcotest.test_case name `Quick f

let parse_cases =
  [ case "named posedge context" (fun () ->
      let _, c = Parser.formula "a @clkB_pos" in
      Alcotest.check Helpers.context "ctx"
        (Context.Clock (Context.Named_edge ("clkB", Context.Posedge))) c);
    case "named negedge context" (fun () ->
      let _, c = Parser.formula "a @mem_clk_neg" in
      Alcotest.check Helpers.context "ctx"
        (Context.Clock (Context.Named_edge ("mem_clk", Context.Negedge))) c);
    case "named any-edge context" (fun () ->
      let _, c = Parser.formula "a @clkB" in
      Alcotest.check Helpers.context "ctx"
        (Context.Clock (Context.Named_edge ("clkB", Context.Any_edge))) c);
    case "gated named context" (fun () ->
      let _, c = Parser.formula "a @(clkB_pos && en)" in
      Alcotest.check Helpers.context "ctx"
        (Context.Clock (Context.Named_edge_and ("clkB", Context.Posedge, Expr.Var "en")))
        c);
    case "named contexts print and re-parse" (fun () ->
      List.iter
        (fun source ->
          let _, c = Parser.formula source in
          let printed = "a " ^ Context.to_string c in
          let _, reparsed = Parser.formula printed in
          Alcotest.check Helpers.context source c reparsed)
        [ "a @clkB_pos"; "a @clkB_neg"; "a @clkB"; "a @(clkB_pos && en)" ]);
    case "clock_name accessor" (fun () ->
      let _, c = Parser.formula "a @clkB_pos" in
      Alcotest.(check (option string)) "named" (Some "clkB") (Context.clock_name c);
      let _, c = Parser.formula "a @clk_pos" in
      Alcotest.(check (option string)) "default" None (Context.clock_name c)) ]

let mapping_cases =
  [ case "named context maps to the base transaction context" (fun () ->
      let p = Parser.property_exn ~name:"p" "always(!a || next(b)) @clkB_pos" in
      let report =
        Tabv_core.Methodology.abstract ~clock_period:10
          ~clock_periods:[ ("clkB", 20) ] p
      in
      match report.Tabv_core.Methodology.output with
      | Some q ->
        Alcotest.check Helpers.context "ctx" (Context.Transaction Context.Base_trans)
          q.Property.context;
        (* eps uses the named clock's period as given. *)
        Alcotest.(check (list int)) "eps" [ 20 ]
          (List.map (fun (ne : Ltl.next_event) -> ne.Ltl.eps)
             (Ltl.next_events q.Property.formula))
      | None -> Alcotest.fail "deleted");
    case "mixed-clock property set gets per-clock eps" (fun () ->
      let properties =
        [ Parser.property_exn ~name:"fast" "always(!a || next[2](b)) @clk_pos";
          Parser.property_exn ~name:"slow" "always(!a || next[2](b)) @clkB_pos" ]
      in
      let reports =
        Tabv_core.Methodology.abstract_all ~clock_period:10
          ~clock_periods:[ ("clkB", 40) ] properties
      in
      let eps_of r =
        match r.Tabv_core.Methodology.output with
        | Some q ->
          List.map (fun (ne : Ltl.next_event) -> ne.Ltl.eps)
            (Ltl.next_events q.Property.formula)
        | None -> []
      in
      Alcotest.(check (list (list int))) "eps" [ [ 20 ]; [ 80 ] ]
        (List.map eps_of reports));
    case "missing named period rejected" (fun () ->
      let p = Parser.property_exn ~name:"p" "always(a) @clkB_pos" in
      match Tabv_core.Methodology.abstract ~clock_period:10 p with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

(* End to end: a counter clocked by clkB (period 20 ns) while the
   default clock runs at 10 ns; the property samples clkB edges only. *)
let e2e_cases =
  [ case "checker samples the named clock" (fun () ->
      let kernel = Kernel.create () in
      let clk_a = Clock.create kernel ~name:"clkA" ~period:10 () in
      let clk_b = Clock.create kernel ~name:"clkB" ~period:20 () in
      let counter = Signal.create kernel ~name:"cnt" 0 in
      Process.method_process kernel ~name:"counter" ~initialize:false
        ~sensitivity:[ Clock.posedge clk_b ]
        (fun () -> Signal.write counter (Signal.read counter + 1));
      (* On clkB's grid the counter increases by exactly 1 per edge; on
         clkA's grid it would stutter (two edges per increment). *)
      let property =
        Parser.property_exn ~name:"mono"
          "always (!(cnt = 2) || next(cnt = 3)) @clkB_pos"
      in
      let wrong_clock =
        Parser.property_exn ~name:"stutter"
          "always (!(cnt = 2) || next(cnt = 3)) @clk_pos"
      in
      let resolve name =
        match name with
        | "cnt" -> Some (fun () -> Expr.VInt (Signal.read counter))
        | _ -> None
      in
      (* The two checkers sample different clocks: one sampler each. *)
      let attach ?clocks property =
        match
          Tabv_checker.Checker.attach
            (Tabv_checker.Checker.Attach.spec
               (Tabv_checker.Sampler.create resolve)
               (Tabv_checker.Checker.Attach.clock_edge ?clocks clk_a))
            kernel [ property ]
        with
        | [ checker ] -> checker
        | _ -> Alcotest.fail "one checker per property"
      in
      let named = attach ~clocks:[ ("clkB", clk_b) ] property in
      let default = attach wrong_clock in
      Kernel.schedule_at kernel ~time:200 (fun () -> Kernel.stop kernel);
      ignore (Kernel.run kernel);
      Alcotest.(check int) "named-clock property holds" 0
        (List.length (Tabv_checker.Checker.failures named));
      (* The same formula on the fast default clock sees cnt=2 on two
         consecutive edges and fails. *)
      Alcotest.(check bool) "default-clock property stutters" true
        (Tabv_checker.Checker.failures default <> []));
    case "unknown named clock rejected" (fun () ->
      let kernel = Kernel.create () in
      let clk = Clock.create kernel ~name:"clk" ~period:10 () in
      let p = Parser.property_exn ~name:"p" "always(a) @nosuch_pos" in
      match
        Tabv_checker.Checker.attach
          (Tabv_checker.Checker.Attach.spec
             (Tabv_checker.Sampler.create (fun _ -> None))
             (Tabv_checker.Checker.Attach.clock_edge clk))
          kernel [ p ]
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ()) ]

let suite = ("multiclock", parse_cases @ mapping_cases @ e2e_cases)
