open Tabv_psl
open Tabv_checker

let lookup_of bindings name = List.assoc_opt name bindings

let env_t = lookup_of [ ("a", Expr.VBool true); ("b", Expr.VBool false) ]
let env_ab = lookup_of [ ("a", Expr.VBool true); ("b", Expr.VBool true) ]
let env_none = lookup_of [ ("a", Expr.VBool false); ("b", Expr.VBool false) ]

let formula source = Parser.formula_only source

let step_seq source envs =
  (* Step once per env, 10 ns apart. *)
  let ob = ref (Progression.of_formula (formula source)) in
  List.iter (fun env -> ob := Helpers.progression_step ~dt:10 env !ob) envs;
  !ob

let verdict_is name expected ob =
  Alcotest.(check (option bool)) name expected (Progression.verdict ob)

let case name f = Alcotest.test_case name `Quick f

let untimed_cases =
  [ case "atom resolves immediately" (fun () ->
      verdict_is "true" (Some true) (step_seq "a" [ env_t ]);
      verdict_is "false" (Some false) (step_seq "b" [ env_t ]));
    case "negated atom" (fun () ->
      verdict_is "true" (Some true) (step_seq "!b" [ env_t ]));
    case "conjunction short-circuits" (fun () ->
      verdict_is "false" (Some false) (step_seq "a && b" [ env_t ]));
    case "next defers one step" (fun () ->
      let ob = step_seq "next(a)" [ env_none ] in
      verdict_is "pending" None ob;
      verdict_is "resolved" (Some true)
        (Helpers.progression_step ~dt:10 env_t ob));
    case "next[3] defers three steps" (fun () ->
      let ob = step_seq "next[3](b)" [ env_t; env_t; env_t ] in
      verdict_is "pending" None ob;
      verdict_is "resolved" (Some false) (Helpers.progression_step ~dt:10 env_t ob));
    case "until discharges on rhs" (fun () ->
      verdict_is "true" (Some true) (step_seq "a until b" [ env_t; env_t; env_ab ]));
    case "until fails when lhs breaks" (fun () ->
      verdict_is "false" (Some false) (step_seq "a until b" [ env_t; env_none ]));
    case "until pending while lhs holds" (fun () ->
      verdict_is "pending" None (step_seq "a until b" [ env_t; env_t; env_t ]));
    case "release pending forever" (fun () ->
      verdict_is "pending" None (step_seq "b release a" [ env_t; env_t ]));
    case "release discharges at release point" (fun () ->
      verdict_is "true" (Some true) (step_seq "b release a" [ env_t; env_ab ]));
    case "release fails when payload breaks" (fun () ->
      verdict_is "false" (Some false) (step_seq "b release a" [ env_t; env_none ]));
    case "always pending until violation" (fun () ->
      verdict_is "pending" None (step_seq "always(a)" [ env_t; env_t ]);
      verdict_is "false" (Some false) (step_seq "always(a)" [ env_t; env_none ]));
    case "eventually resolves on witness" (fun () ->
      verdict_is "true" (Some true) (step_seq "eventually(b)" [ env_t; env_ab ]);
      verdict_is "pending" None (step_seq "eventually(b)" [ env_t; env_t ]));
    case "rejects non-NNF" (fun () ->
      match Progression.of_formula (formula "!(a && b)") with
      | _ -> Alcotest.fail "expected Not_in_nnf"
      | exception Progression.Not_in_nnf _ -> ()) ]

(* Steps at absolute instants, the way a monitor drives them: each
   step's [dt] counts from the previous step, and so does a wait's due
   instant. *)
type clock = { mutable last : int }

let clock () = { last = 0 }

let step_at c ~time env ob =
  let ob = Helpers.progression_step ~dt:(time - c.last) env ob in
  c.last <- time;
  ob

let due_at c ob = Option.map (( + ) c.last) (Progression.next_evaluation_in ob)

let timed_cases =
  [ case "nexte waits for the exact instant" (fun () ->
      let c = clock () in
      let ob = Progression.of_formula (formula "nexte[1,170](a)") in
      let ob = step_at c ~time:0 env_none ob in
      verdict_is "pending after firing" None ob;
      Alcotest.(check bool) "timed wait" true (Progression.has_timed_wait ob);
      Alcotest.(check (option int)) "evaluation table entry" (Some 170) (due_at c ob);
      (* A transaction before the instant is ignored. *)
      let ob = step_at c ~time:40 env_none ob in
      verdict_is "still pending" None ob;
      (* The transaction at exactly 170 evaluates the operand. *)
      let ob = step_at c ~time:170 env_t ob in
      verdict_is "resolved" (Some true) ob);
    case "nexte fails when the instant is skipped" (fun () ->
      let c = clock () in
      let ob = Progression.of_formula (formula "nexte[1,170](a)") in
      let ob = step_at c ~time:0 env_none ob in
      let ob = step_at c ~time:180 env_t ob in
      verdict_is "failed" (Some false) ob);
    case "nexte operand false at the instant" (fun () ->
      let c = clock () in
      let ob = Progression.of_formula (formula "nexte[1,20](b)") in
      let ob = step_at c ~time:0 env_t ob in
      let ob = step_at c ~time:20 env_t ob in
      verdict_is "failed" (Some false) ob);
    case "chained nexte re-anchors at its own instant" (fun () ->
      let c = clock () in
      let ob = Progression.of_formula (formula "nexte[1,20](nexte[2,30](a))") in
      let ob = step_at c ~time:0 env_none ob in
      let ob = step_at c ~time:20 env_none ob in
      Alcotest.(check (option int)) "second target" (Some 50) (due_at c ob);
      let ob = step_at c ~time:50 env_t ob in
      verdict_is "resolved" (Some true) ob);
    case "paper q3 wrapper behaviour (Fig. 5)" (fun () ->
      (* q3 body: !ds || nexte[1,170](rdy); instance fired at a
         transaction where ds holds. *)
      let c = clock () in
      let body = formula "!ds || nexte[1,170](rdy)" in
      let env ~ds ~rdy =
        lookup_of [ ("ds", Expr.VBool ds); ("rdy", Expr.VBool rdy) ]
      in
      let ob = step_at c ~time:0 (env ~ds:true ~rdy:false)
          (Progression.of_formula body)
      in
      verdict_is "fired" None ob;
      (* Unrelated transactions in between are skipped. *)
      let ob = step_at c ~time:40 (env ~ds:false ~rdy:false) ob in
      let ob = step_at c ~time:90 (env ~ds:false ~rdy:false) ob in
      verdict_is "still waiting" None ob;
      let ob = step_at c ~time:170 (env ~ds:false ~rdy:true) ob in
      verdict_is "passes" (Some true) ob);
    case "paper q3 late transaction raises failure" (fun () ->
      let c = clock () in
      let body = formula "!ds || nexte[1,170](rdy)" in
      let env ~ds ~rdy =
        lookup_of [ ("ds", Expr.VBool ds); ("rdy", Expr.VBool rdy) ]
      in
      let ob = step_at c ~time:0 (env ~ds:true ~rdy:false)
          (Progression.of_formula body)
      in
      let ob = step_at c ~time:180 (env ~ds:false ~rdy:true) ob in
      verdict_is "fails" (Some false) ob) ]

let equivalence_cases =
  (* The progression verdict agrees with the declarative three-valued
     semantics on full traces. *)
  [ Helpers.qtest ~count:300 "progression agrees with Semantics"
      Helpers.arb_nnf_and_trace (fun (f, trace) ->
        let ob = ref (Progression.of_formula f) in
        (try
           for i = 0 to Trace.length trace - 1 do
             let entry = Trace.get trace i in
             ob :=
               Helpers.progression_step ~dt:(Helpers.trace_dt trace i) (Trace.lookup entry)
                 !ob
           done
         with _ -> ());
        let expected =
          match Semantics.eval trace f with
          | Semantics.True -> Some true
          | Semantics.False -> Some false
          | Semantics.Unknown -> None
        in
        Progression.verdict !ob = expected);
    Helpers.qtest ~count:300 "timed progression agrees with timed semantics"
      Helpers.arb_timed_nnf_and_trace (fun (f, trace) ->
        let ob = ref (Progression.of_formula f) in
        for i = 0 to Trace.length trace - 1 do
          let entry = Trace.get trace i in
          ob :=
            Helpers.progression_step ~dt:(Helpers.trace_dt trace i) (Trace.lookup entry) !ob
        done;
        let expected =
          match Semantics.eval trace f with
          | Semantics.True -> Some true
          | Semantics.False -> Some false
          | Semantics.Unknown -> None
        in
        Progression.verdict !ob = expected) ]

let suite = ("progression", untimed_cases @ timed_cases @ equivalence_cases)
