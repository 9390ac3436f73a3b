(* Shared alcotest testables and qcheck generators. *)

(* Hidden subprocess-worker hook: the serve tests' subprocess workers
   re-execute *this* binary with [_worker].  It runs here, as the first
   test module initializes: every module that assembles a qcheck suite
   depends on this one, and assembling one prints a seed banner on
   stdout that would corrupt the frame protocol. *)
let () = Tabv_serve.Handler.worker_hook ()

open Tabv_psl

let ltl = Alcotest.testable Ltl.pp Ltl.equal
let expr_t = Alcotest.testable Expr.pp Expr.equal
let context = Alcotest.testable Context.pp Context.equal
let property = Alcotest.testable Property.pp Property.equal
let verdict = Alcotest.testable Semantics.pp_verdict Semantics.equal_verdict

let check_ltl = Alcotest.check ltl
let check_verdict = Alcotest.check Alcotest.(option verdict)

(* Signal alphabet used by generators: three booleans, two integers. *)
let bool_signals = [ "a"; "b"; "c" ]
let int_signals = [ "x"; "y" ]

open QCheck

let gen_bool_var = Gen.oneofl bool_signals
let gen_int_var = Gen.oneofl int_signals

let gen_arith =
  Gen.sized_size (Gen.int_bound 2) @@ Gen.fix (fun self n ->
    if n = 0 then
      Gen.oneof [ Gen.map (fun i -> Expr.Int i) (Gen.int_range (-4) 8);
                  Gen.map (fun v -> Expr.Avar v) gen_int_var ]
    else
      Gen.oneof
        [ Gen.map (fun i -> Expr.Int i) (Gen.int_range (-4) 8);
          Gen.map (fun v -> Expr.Avar v) gen_int_var;
          Gen.map2 (fun a b -> Expr.Add (a, b)) (self (n / 2)) (self (n / 2));
          Gen.map2 (fun a b -> Expr.Sub (a, b)) (self (n / 2)) (self (n / 2));
          Gen.map2 (fun a b -> Expr.Mul (a, b)) (self (n / 2)) (self (n / 2)) ])

let gen_cmp_op = Gen.oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

(* Atoms kept simple (Var / Cmp) so printing round-trips structurally. *)
let gen_atom_expr =
  Gen.oneof
    [ Gen.map (fun v -> Expr.Var v) gen_bool_var;
      Gen.map3 (fun op a b -> Expr.Cmp (op, a, b)) gen_cmp_op gen_arith gen_arith ]

(* Boolean-layer expression including connectives (for Expr tests). *)
let gen_expr =
  Gen.sized_size (Gen.int_bound 3) @@ Gen.fix (fun self n ->
    if n = 0 then gen_atom_expr
    else
      Gen.oneof
        [ gen_atom_expr;
          Gen.map (fun e -> Expr.Not e) (self (n - 1));
          Gen.map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2));
          Gen.map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2)) ])

(* General LTL formula (may contain Not / Implies anywhere). *)
let gen_ltl_general =
  Gen.sized_size (Gen.int_bound 5) @@ Gen.fix (fun self n ->
    if n = 0 then Gen.map (fun e -> Ltl.Atom e) gen_atom_expr
    else
      let sub = self (n / 2) in
      Gen.oneof
        [ Gen.map (fun e -> Ltl.Atom e) gen_atom_expr;
          Gen.map (fun p -> Ltl.Not p) (self (n - 1));
          Gen.map2 (fun p q -> Ltl.And (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Or (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Implies (p, q)) sub sub;
          Gen.map2 (fun k p -> Ltl.next_n k p) (Gen.int_range 1 3) (self (n - 1));
          Gen.map2 (fun p q -> Ltl.Until (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Release (p, q)) sub sub;
          Gen.map (fun p -> Ltl.Always p) (self (n - 1));
          Gen.map (fun p -> Ltl.Eventually p) (self (n - 1)) ])

(* NNF formula: negation only directly on atoms. *)
let gen_ltl_nnf =
  Gen.sized_size (Gen.int_bound 5) @@ Gen.fix (fun self n ->
    let atom =
      Gen.oneof
        [ Gen.map (fun e -> Ltl.Atom e) gen_atom_expr;
          Gen.map (fun e -> Ltl.Not (Ltl.Atom e)) gen_atom_expr ]
    in
    if n = 0 then atom
    else
      let sub = self (n / 2) in
      Gen.oneof
        [ atom;
          Gen.map2 (fun p q -> Ltl.And (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Or (p, q)) sub sub;
          Gen.map2 (fun k p -> Ltl.next_n k p) (Gen.int_range 1 3) (self (n - 1));
          Gen.map2 (fun p q -> Ltl.Until (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Release (p, q)) sub sub;
          Gen.map (fun p -> Ltl.Always p) (self (n - 1));
          Gen.map (fun p -> Ltl.Eventually p) (self (n - 1)) ])

let gen_env =
  let open Gen in
  let* bools = flatten_l (List.map (fun _ -> bool) bool_signals) in
  let* ints = flatten_l (List.map (fun _ -> int_range (-2) 6) int_signals) in
  return
    (List.map2 (fun name b -> (name, Expr.VBool b)) bool_signals bools
     @ List.map2 (fun name i -> (name, Expr.VInt i)) int_signals ints)

(* Cycle-accurate trace: one entry per clock event, period 10 ns. *)
let gen_trace =
  let open Gen in
  let* len = int_range 1 30 in
  let* envs = list_repeat len gen_env in
  return (Trace.cycle_trace ~period:10 envs)

let arb_ltl_general = make ~print:Ltl.to_string gen_ltl_general
let arb_ltl_nnf = make ~print:Ltl.to_string gen_ltl_nnf
let arb_expr = make ~print:Expr.to_string gen_expr

let arb_ltl_and_trace =
  make
    ~print:(fun (t, trace) ->
      Printf.sprintf "%s\non trace:\n%s" (Ltl.to_string t)
        (Format.asprintf "%a" Trace.pp trace))
    Gen.(pair gen_ltl_general gen_trace)

let arb_nnf_and_trace =
  make
    ~print:(fun (t, trace) ->
      Printf.sprintf "%s\non trace:\n%s" (Ltl.to_string t)
        (Format.asprintf "%a" Trace.pp trace))
    Gen.(pair gen_ltl_nnf gen_trace)

(* Wrap a qcheck property as an alcotest case. *)
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* NNF formula that may contain next_eps^tau (eps on the 10 ns grid),
   for timed progression/semantics equivalence tests. *)
let gen_ltl_timed_nnf =
  Gen.sized_size (Gen.int_bound 5) @@ Gen.fix (fun self n ->
    let atom =
      Gen.oneof
        [ Gen.map (fun e -> Ltl.Atom e) gen_atom_expr;
          Gen.map (fun e -> Ltl.Not (Ltl.Atom e)) gen_atom_expr ]
    in
    if n = 0 then atom
    else
      let sub = self (n / 2) in
      let nexte =
        let open Gen in
        let* tau = int_range 1 4 in
        let* eps = Gen.map (fun k -> 10 * k) (int_range 1 6) in
        let* body = self (n - 1) in
        return (Ltl.Next_event ({ Ltl.tau; eps }, body))
      in
      Gen.oneof
        [ atom;
          nexte;
          Gen.map2 (fun p q -> Ltl.And (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Or (p, q)) sub sub;
          Gen.map2 (fun k p -> Ltl.next_n k p) (Gen.int_range 1 3) (self (n - 1));
          Gen.map2 (fun p q -> Ltl.Until (p, q)) sub sub;
          Gen.map2 (fun p q -> Ltl.Release (p, q)) sub sub;
          Gen.map (fun p -> Ltl.Always p) (self (n - 1));
          Gen.map (fun p -> Ltl.Eventually p) (self (n - 1)) ])

(* Timed trace with irregular (but grid-aligned) event spacing, like a
   transaction stream.  Gaps reach 90 ns, past the longest generated
   wait (60 ns), so events skip past waits as well as land on them. *)
let gen_timed_trace =
  let open Gen in
  let* len = int_range 1 25 in
  let* gaps = list_repeat len (int_range 1 9) in
  let* envs = list_repeat len gen_env in
  let entries =
    List.rev
      (snd
         (List.fold_left2
            (fun (time, acc) gap env ->
              let time = time + (10 * gap) in
              (time, { Trace.time; env } :: acc))
            (0, []) gaps envs))
  in
  return (Trace.of_list entries)

let arb_timed_nnf_and_trace =
  make
    ~print:(fun (t, trace) ->
      Printf.sprintf "%s\non trace:\n%s" (Ltl.to_string t)
        (Format.asprintf "%a" Trace.pp trace))
    Gen.(pair gen_ltl_timed_nnf gen_timed_trace)

(* The same, half the time with a transaction gate: the formula is
   evaluated only at events where the gate holds. *)
let arb_maybe_gated_timed_nnf_and_trace =
  make
    ~print:(fun (gate, (t, trace)) ->
      Printf.sprintf "%s%s\non trace:\n%s" (Ltl.to_string t)
        (match gate with
         | Some gate -> " gated by " ^ Expr.to_string gate
         | None -> "")
        (Format.asprintf "%a" Trace.pp trace))
    Gen.(pair (opt ~ratio:0.5 gen_atom_expr) (pair gen_ltl_timed_nnf gen_timed_trace))

(* --- stepping checkers against lookup functions --------------------- *)

(* Checkers read signals through compiled atoms ([Sampler]); the tests
   drive them with plain lookup functions instead, through these
   adaptors. *)

(* One progression step [dt] ns after the previous one, atoms
   evaluated by the reference interpreter. *)
let progression_step ~dt lookup ob =
  let eval atom =
    match Tabv_psl.Interned.node atom with
    | Tabv_psl.Interned.Atom e -> Expr.eval lookup e
    | _ -> invalid_arg "Helpers.progression_step: not an atom"
  in
  Tabv_checker.Progression.step_atoms_in
    (Tabv_checker.Progression.handle ())
    ~dt eval ob

(* The [dt] of entry [i] of [trace]: ns since the entry before it (0
   for the first, whose obligation holds no wait yet). *)
let trace_dt trace i =
  if i = 0 then 0
  else (Trace.get trace i).Trace.time - (Trace.get trace (i - 1)).Trace.time

(* The lookup of the evaluation point being stepped: every sampler made
   by [lookup_sampler] reads its signals through it. *)
let current_lookup : (string -> Expr.value option) ref = ref (fun _ -> None)

let lookup_sampler () =
  Tabv_checker.Sampler.create (fun name ->
      Some
        (fun () ->
          match !current_lookup name with
          | Some value -> value
          | None -> raise (Expr.Eval_error (Printf.sprintf "unbound signal %S" name))))

(* A monitor over its own [lookup_sampler] unless one is given. *)
let monitor ?sampler property =
  let sampler =
    match sampler with
    | Some sampler -> sampler
    | None -> lookup_sampler ()
  in
  Tabv_checker.Monitor.create ~sampler property

let monitor_step m ~time lookup =
  current_lookup := lookup;
  Tabv_checker.Monitor.step m ~time

(* One run of [model] over [workload] under run record [r], with its
   evaluation trace recorded through the binary writer to a temporary
   file and read back: the one trace tap, as `tabv record` uses it. *)
let run_traced r model workload =
  let path = Filename.temp_file "tabv_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let result =
        Tabv_trace.Writer.with_file ~path
          (Tabv_trace.Meta.make ~model:"test" ~seed:0 ~ops:0)
          (fun writer ->
            Tabv_duv.Testbench.run { r with trace_writer = Some writer } model workload)
      in
      (result, snd (Tabv_trace.Reader.read_trace path)))

(* This process's count of open file descriptors, where /proc shows
   it: a test that must leak none compares it before and after. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None
