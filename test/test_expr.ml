open Tabv_psl

let lookup_of bindings name = List.assoc_opt name bindings

let env1 =
  lookup_of
    [ ("ds", Expr.VBool true);
      ("rdy", Expr.VBool false);
      ("indata", Expr.VInt 0);
      ("out", Expr.VInt 42) ]

let check_eval name expected e =
  Alcotest.test_case name `Quick (fun () ->
    Alcotest.(check bool) name expected (Expr.eval env1 e))

let check_signals name expected e =
  Alcotest.test_case name `Quick (fun () ->
    Alcotest.(check (list string)) name expected (Expr.signals e))

let eval_cases =
  [ check_eval "var true" true (Expr.Var "ds");
    check_eval "var false" false (Expr.Var "rdy");
    check_eval "not" false (Expr.Not (Expr.Var "ds"));
    check_eval "and" false (Expr.And (Expr.Var "ds", Expr.Var "rdy"));
    check_eval "or" true (Expr.Or (Expr.Var "ds", Expr.Var "rdy"));
    check_eval "eq on int" true (Expr.Cmp (Expr.Eq, Expr.Avar "indata", Expr.Int 0));
    check_eval "neq on int" true (Expr.Cmp (Expr.Neq, Expr.Avar "out", Expr.Int 0));
    check_eval "lt" false (Expr.Cmp (Expr.Lt, Expr.Avar "out", Expr.Int 42));
    check_eval "le" true (Expr.Cmp (Expr.Le, Expr.Avar "out", Expr.Int 42));
    check_eval "gt" false (Expr.Cmp (Expr.Gt, Expr.Avar "out", Expr.Int 42));
    check_eval "ge" true (Expr.Cmp (Expr.Ge, Expr.Avar "out", Expr.Int 42));
    check_eval "arith add mul"
      true
      (Expr.Cmp (Expr.Eq, Expr.Add (Expr.Avar "out", Expr.Mul (Expr.Int 2, Expr.Int 4)), Expr.Int 50));
    check_eval "arith sub" true (Expr.Cmp (Expr.Eq, Expr.Sub (Expr.Avar "out", Expr.Int 2), Expr.Int 40));
    check_eval "int signal as bool" false (Expr.Var "indata");
    check_eval "nonzero int as bool" true (Expr.Var "out") ]

let error_cases =
  [ Alcotest.test_case "unbound signal raises" `Quick (fun () ->
      Alcotest.check_raises "unbound"
        (Expr.Eval_error "unbound signal \"nosuch\"")
        (fun () -> ignore (Expr.eval env1 (Expr.Var "nosuch"))));
    Alcotest.test_case "bool in arith position raises" `Quick (fun () ->
      match Expr.eval env1 (Expr.Cmp (Expr.Eq, Expr.Avar "ds", Expr.Int 1)) with
      | exception Expr.Eval_error _ -> ()
      | _ -> Alcotest.fail "expected Eval_error") ]

let signal_cases =
  [ check_signals "var" [ "ds" ] (Expr.Var "ds");
    check_signals "dedup and sort" [ "a"; "b" ]
      (Expr.And (Expr.Var "b", Expr.Or (Expr.Var "a", Expr.Var "b")));
    check_signals "cmp collects arith vars" [ "indata"; "out" ]
      (Expr.Cmp (Expr.Lt, Expr.Avar "out", Expr.Add (Expr.Avar "indata", Expr.Int 1)));
    check_signals "const has none" [] (Expr.Bool true);
    Alcotest.test_case "mentions_any" `Quick (fun () ->
      let e = Expr.And (Expr.Var "ds", Expr.Cmp (Expr.Eq, Expr.Avar "indata", Expr.Int 0)) in
      Alcotest.(check bool) "yes" true (Expr.mentions_any e [ "indata"; "zz" ]);
      Alcotest.(check bool) "no" false (Expr.mentions_any e [ "zz" ])) ]

let simplify_cases =
  let check name expected e =
    Alcotest.test_case name `Quick (fun () ->
      Alcotest.check Helpers.expr_t name expected (Expr.simplify e))
  in
  [ check "and false" (Expr.Bool false) (Expr.And (Expr.Var "a", Expr.Bool false));
    check "and true unit" (Expr.Var "a") (Expr.And (Expr.Bool true, Expr.Var "a"));
    check "or true" (Expr.Bool true) (Expr.Or (Expr.Bool true, Expr.Var "a"));
    check "or false unit" (Expr.Var "a") (Expr.Or (Expr.Var "a", Expr.Bool false));
    check "double negation" (Expr.Var "a") (Expr.Not (Expr.Not (Expr.Var "a")));
    check "not of const" (Expr.Bool false) (Expr.Not (Expr.Bool true));
    check "constant comparison" (Expr.Bool true) (Expr.Cmp (Expr.Lt, Expr.Int 1, Expr.Int 2)) ]

let pp_roundtrip_cases =
  [ Helpers.qtest "print/parse round-trip (expr in formula position)" Helpers.arb_expr
      (fun e ->
        (* Parse back through the formula parser; compare after
           demotion, which collapses the LTL-level connectives the
           parser introduces. *)
        let printed = Format.asprintf "%a" Expr.pp e in
        match Parser.formula_only printed with
        | f ->
          (match Ltl.demote_booleans f with
           | Ltl.Atom e' -> Expr.equal e e'
           | _ -> false)
        | exception Parser.Parse_error _ -> false);
    Helpers.qtest "simplify preserves evaluation" Helpers.arb_expr (fun e ->
      let env =
        lookup_of
          [ ("a", Expr.VBool true); ("b", Expr.VBool false); ("c", Expr.VBool true);
            ("x", Expr.VInt 3); ("y", Expr.VInt (-1)) ]
      in
      Expr.eval env e = Expr.eval env (Expr.simplify e)) ]

(* --- compiled evaluation ------------------------------------------ *)

(* Expressions over a name pool any of whose names the environment may
   leave unbound or bind with the other type, so ill-typed reads and
   unbound signals are as common as good ones. *)
let names = [ "a"; "b"; "x"; "y"; "u" ]

let gen_compile_case =
  let open QCheck.Gen in
  let name = oneofl names in
  let arith =
    sized_size (int_bound 3) @@ fix (fun self n ->
      let leaf =
        oneof [ map (fun i -> Expr.Int i) (int_range (-3) 5);
                map (fun v -> Expr.Avar v) name ]
      in
      if n = 0 then leaf
      else
        oneof
          [ leaf;
            map2 (fun a b -> Expr.Add (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Sub (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Mul (a, b)) (self (n / 2)) (self (n / 2)) ])
  in
  let expr =
    sized_size (int_bound 4) @@ fix (fun self n ->
      let leaf =
        oneof
          [ map (fun b -> Expr.Bool b) bool;
            map (fun v -> Expr.Var v) name;
            map3 (fun op a b -> Expr.Cmp (op, a, b)) Helpers.gen_cmp_op arith arith ]
      in
      if n = 0 then leaf
      else
        oneof
          [ leaf;
            map (fun e -> Expr.Not e) (self (n - 1));
            map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)) ])
  in
  let binding =
    oneof
      [ return None;
        map (fun b -> Some (Expr.VBool b)) bool;
        map (fun i -> Some (Expr.VInt i)) (int_range (-2) 3) ]
  in
  let* env = flatten_l (List.map (fun _ -> binding) names) in
  let* e = expr in
  return
    ( e,
      List.concat
        (List.map2
           (fun n v -> match v with Some v -> [ (n, v) ] | None -> [])
           names env) )

let arb_compile_case =
  QCheck.make
    ~print:(fun (e, env) ->
      Format.asprintf "%a@ over [%s]" Expr.pp e
        (String.concat "; "
           (List.map
              (fun (n, v) -> Format.asprintf "%s=%a" n Expr.pp_value v)
              env)))
    gen_compile_case

(* The result of one evaluation and the bound signals it read, in
   order; an error carries [eval]'s message. *)
let run_logged f =
  let reads = ref [] in
  let outcome =
    match f (fun name -> reads := name :: !reads) with
    | b -> Ok b
    | exception Expr.Eval_error message -> Error message
  in
  (outcome, List.rev !reads)

let interpreted (e, env) =
  run_logged (fun log ->
      Expr.eval
        (fun name ->
          let v = List.assoc_opt name env in
          if v <> None then log name;
          v)
        e)

let compiled (e, env) =
  let log = ref ignore in
  let resolve name =
    match List.assoc_opt name env with
    | Some v -> Some (fun () -> !log name; v)
    | None -> None
  in
  (* Compiling resolves every name but never raises, whatever the
     environment holds. *)
  let run = Expr.compile resolve e in
  run_logged (fun l ->
      log := l;
      run ())

let compile_cases =
  [ Helpers.qtest ~count:1000 "compile agrees with eval: result, error, read order"
      arb_compile_case (fun case -> compiled case = interpreted case);
    Helpers.qtest "a compiled closure gives the same answer every run"
      arb_compile_case (fun case -> compiled case = compiled case);
    Helpers.qtest "compiling over an empty resolver never raises"
      arb_compile_case (fun (e, _) ->
        let (_ : unit -> bool) = Expr.compile (fun _ -> None) e in
        true);
    Alcotest.test_case "an unbound signal raises when run, not when compiled" `Quick
      (fun () ->
        let run = Expr.compile (fun _ -> None) (Expr.Var "ds") in
        Alcotest.check_raises "eval's message" (Expr.Eval_error "unbound signal \"ds\"")
          (fun () -> ignore (run ())));
    Alcotest.test_case "env_resolver reads the env current at run time" `Quick
      (fun () ->
        let env = ref [ ("a", Expr.VBool false) ] in
        let run = Expr.compile (Expr.env_resolver env) (Expr.Var "a") in
        Alcotest.(check bool) "before" false (run ());
        env := [ ("a", Expr.VBool true) ];
        Alcotest.(check bool) "after" true (run ());
        env := [];
        Alcotest.check_raises "unbound" (Expr.Eval_error "unbound signal \"a\"")
          (fun () -> ignore (run ()))) ]

let suite =
  ("expr",
   eval_cases @ error_cases @ signal_cases @ simplify_cases @ pp_roundtrip_cases
   @ compile_cases)
