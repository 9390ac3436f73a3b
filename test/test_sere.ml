open Tabv_psl

(* Bounded SERE suffix implication, desugared to LTL at parse time. *)

let case name f = Alcotest.test_case name `Quick f
let atom s = Ltl.Atom (Expr.Var s)

let parses name source expected =
  case name (fun () ->
    Helpers.check_ltl name expected (Parser.formula_only source))

let rejects name source =
  case name (fun () ->
    match Parser.formula_only source with
    | _ -> Alcotest.failf "expected parse error for %S" source
    | exception Parser.Parse_error _ -> ())

let structure_cases =
  [ parses "single-element SERE" "{a} |-> b" (Ltl.Implies (atom "a", atom "b"));
    parses "concatenation shifts by one cycle" "{a; b} |-> c"
      (Ltl.Implies (atom "a", Ltl.Next_n (1, Ltl.Implies (atom "b", atom "c"))));
    parses "non-overlapping implication" "{a} |=> b"
      (Ltl.Implies (atom "a", Ltl.Next_n (1, atom "b")));
    parses "alternation becomes conjunction of expansions" "{a | b} |-> c"
      (Ltl.And (Ltl.Implies (atom "a", atom "c"), Ltl.Implies (atom "b", atom "c")));
    parses "fixed repetition unrolls" "{a[*2]} |-> b"
      (Ltl.Implies (atom "a", Ltl.Next_n (1, Ltl.Implies (atom "a", atom "b"))));
    rejects "empty repetition rejected" "{a[*0]} |-> b";
    rejects "reversed repetition rejected" "{a[*3..2]} |-> b";
    rejects "temporal SERE element rejected" "{next(a)} |-> b";
    rejects "SERE without implication" "{a; b}" ]

(* Semantics checked exhaustively against hand-expanded equivalents. *)
let semantic_cases =
  let equivalent name sere expanded =
    case name (fun () ->
      match
        Exhaustive.equivalent ~signals:[ "a"; "b"; "c" ] ~max_depth:5
          (Parser.formula_only sere) (Parser.formula_only expanded)
      with
      | Exhaustive.Holds -> ()
      | Exhaustive.Counterexample trace ->
        Alcotest.failf "%s refuted:\n%s" name (Format.asprintf "%a" Trace.pp trace))
  in
  [ equivalent "three-step sequence" "{a; b; c} |-> b"
      "a -> next(b -> next(c -> b))";
    equivalent "ranged repetition" "{a[*1..2]; b} |-> c"
      "(a -> next(b -> c)) && (a -> next(a -> next(b -> c)))";
    equivalent "alternation under concatenation" "{ {a | b}; c } |-> b"
      "(a -> next(c -> b)) && (b -> next(c -> b))";
    equivalent "non-overlapping vs overlapping shift" "{a; b} |=> c"
      "{a; b; true} |-> c" ]

(* SEREs flow through the abstraction pipeline like any LTL. *)
let methodology_cases =
  [ case "a SERE property abstracts to nexte obligations" (fun () ->
      let p =
        Parser.property_exn ~name:"s" "always({ds; !ds; !ds} |-> rdy_early) @clk_pos"
      in
      let report = Tabv_core.Methodology.abstract ~clock_period:10 p in
      match report.Tabv_core.Methodology.output with
      | Some q ->
        (* Two concatenation steps: nexte at 10 and 20 ns. *)
        Alcotest.(check (list int)) "eps" [ 10; 20 ]
          (List.map
             (fun (ne : Ltl.next_event) -> ne.Ltl.eps)
             (Ltl.next_events q.Property.formula))
      | None -> Alcotest.fail "deleted");
    case "a SERE property checks end to end on DES56 RTL" (fun () ->
      (* After a strobe, the strobe stays low for the next two cycles
         (latency 17 with a 2-cycle minimum gap in the testbench). *)
      let p =
        Parser.property_exn ~name:"sere1" "always({ds; true} |-> !ds) @clk_pos"
      in
      let ops = Tabv_duv.Workload.des56 ~seed:17 ~count:10 () in
      let result =
        Tabv_duv.Testbench.run
          { Tabv_duv.Testbench.default with properties = [ p ] }
          (Tabv_duv.Testbench.des56_rtl ()) ops
      in
      Alcotest.(check int) "no failures" 0 (Tabv_duv.Testbench.total_failures result)) ]

let suite = ("sere", structure_cases @ semantic_cases @ methodology_cases)
