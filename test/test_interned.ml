open Tabv_psl
open Tabv_checker
open Tabv_oracle

(* The interned checker core: hash-consing invariants, and
   property-based equivalence of the interned memoizing engine against
   the legacy tree-rewriting engine it replaced (kept in the test
   oracle as the executable specification). *)

let case name f = Alcotest.test_case name `Quick f
let formula source = Parser.formula_only source

(* --- hash-consing invariants --------------------------------------- *)

let hashcons_cases =
  [ case "structurally equal terms share one heap node" (fun () ->
      let a = Interned.intern (formula "always(a until next[2](b))") in
      let b = Interned.intern (formula "always(a until next[2](b))") in
      Alcotest.(check bool) "physically equal" true (a == b);
      Alcotest.(check int) "same id" (Interned.id a) (Interned.id b));
    case "distinct terms get distinct ids" (fun () ->
      let a = Interned.intern (formula "a until b") in
      let b = Interned.intern (formula "b until a") in
      Alcotest.(check bool) "not equal" false (Interned.equal a b);
      Alcotest.(check bool) "distinct ids" true (Interned.id a <> Interned.id b));
    case "ids are stable across re-interning" (fun () ->
      let a = Interned.intern (formula "eventually(a && b)") in
      let id = Interned.id a in
      let _ = Interned.intern (formula "always(c)") in
      Alcotest.(check int) "same id later" id
        (Interned.id (Interned.intern (formula "eventually(a && b)"))));
    case "next_n collapses nested counts" (fun () ->
      let p = Interned.atom (Expr.Var "a") in
      Alcotest.(check bool) "next[2](next[3] p) == next[5] p" true
        (Interned.next_n 2 (Interned.next_n 3 p) == Interned.next_n 5 p);
      Alcotest.(check bool) "next[0] is identity" true (Interned.next_n 0 p == p));
    case "interning does not grow the table on re-insertion" (fun () ->
      let f = formula "always((a && b) || (a && b))" in
      let _ = Interned.intern f in
      let before = Interned.node_count () in
      let _ = Interned.intern f in
      Alcotest.(check int) "node count unchanged" before (Interned.node_count ()));
    Helpers.qtest ~count:500 "intern / to_ltl round-trips structurally"
      Helpers.arb_ltl_general (fun f ->
        (* next_n flattening is the one normalisation intern performs;
           the generator never nests Next_n directly, so the
           round-trip is structural identity. *)
        Ltl.equal (Interned.to_ltl (Interned.intern f)) f);
    Helpers.qtest ~count:500 "physical equality = structural equality"
      QCheck.(pair Helpers.arb_ltl_general Helpers.arb_ltl_general)
      (fun (f, g) ->
        let fi = Interned.intern f and gi = Interned.intern g in
        Interned.equal fi gi = Ltl.equal (Interned.to_ltl fi) (Interned.to_ltl gi))
  ]

(* --- step-level equivalence: interned engine vs. legacy ------------- *)

(* The interned engine steps by the gap since the previous entry; the
   legacy one by the entry's absolute instant, which is also where a
   relative wait falls due. *)
let verdicts_agree (f, trace) =
  let ob = ref (Progression.of_formula f) in
  let leg = ref (Legacy.of_formula f) in
  let ok = ref true in
  for i = 0 to Trace.length trace - 1 do
    let entry = Trace.get trace i in
    let lookup = Trace.lookup entry in
    ob := Helpers.progression_step ~dt:(Helpers.trace_dt trace i) lookup !ob;
    leg := Legacy.step ~time:entry.Trace.time lookup !leg;
    if Progression.verdict !ob <> Legacy.verdict !leg then ok := false;
    let due = Option.map (( + ) entry.Trace.time) (Progression.next_evaluation_in !ob) in
    if due <> Legacy.next_evaluation_time !leg then ok := false
  done;
  !ok

(* A state reading [n] atoms: [always] over their disjunction, so the
   one state steps to itself (or fails) on every valuation. *)
let wide_state n =
  let source =
    String.concat " || " (List.init n (fun i -> Printf.sprintf "a%d" i))
  in
  Parser.formula_only (Printf.sprintf "always (%s)" source)

(* Step [f] over random valuations of its [n] atoms, memo and legacy
   side by side, restarting from the initial state after a failure. *)
let wide_rows_agree n valuations =
  let f = wide_state n in
  let initial = Progression.of_formula f in
  let ob = ref initial and leg = ref (Legacy.of_formula f) in
  List.for_all
    (fun bits ->
      let lookup name =
        Scanf.sscanf_opt name "a%d" (fun i -> Expr.VBool (bits land (1 lsl i) <> 0))
      in
      ob := Helpers.progression_step ~dt:0 lookup !ob;
      leg := Legacy.step ~time:0 lookup !leg;
      let agree = Progression.verdict !ob = Legacy.verdict !leg in
      if Progression.is_false !ob then begin
        ob := initial;
        leg := Legacy.of_formula f
      end;
      agree)
    valuations

let arb_valuations n =
  (* Mostly all-true valuations (the state survives), some sparse ones. *)
  let all = (1 lsl n) - 1 in
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency [ (3, return all); (2, int_bound all); (1, return 0) ]))

let step_equivalence_cases =
  [ Helpers.qtest ~count:500 "interned progression = legacy progression (untimed)"
      Helpers.arb_nnf_and_trace verdicts_agree;
    Helpers.qtest ~count:500 "interned progression = legacy progression (timed)"
      Helpers.arb_timed_nnf_and_trace verdicts_agree;
    case "memo rows over eight atoms are dense, wider rows hashed" (fun () ->
      let row n =
        let ob = Progression.of_formula (wide_state n) in
        let all_true name =
          if String.length name > 0 && name.[0] = 'a' then Some (Expr.VBool true)
          else None
        in
        ignore (Helpers.progression_step ~dt:0 all_true ob);
        match Progression.memo_row ob with
        | Progression.Dense_row atoms -> ("dense", Array.length atoms)
        | Progression.Hashed_row atoms -> ("hashed", Array.length atoms)
        | Progression.Unstepped | Progression.Unmemoizable_row
        | Progression.Rows_per_dt ->
          ("none", 0)
      in
      Alcotest.(check (pair string int)) "8 atoms" ("dense", 8) (row 8);
      Alcotest.(check (pair string int)) "9 atoms" ("hashed", 9) (row 9));
    Helpers.qtest ~count:200 "a hashed memo row = legacy progression"
      (arb_valuations 10) (wide_rows_agree 10);
    Helpers.qtest ~count:200 "a dense memo row = legacy progression"
      (arb_valuations 6) (wide_rows_agree 6) ]

(* --- monitor-level equivalence ------------------------------------- *)

(* Full wrapper accounting must be independent of the engine: failure
   lists (with attribution), activation/pass/pending counters, peak
   instance counts and the timed evaluation table. *)

let eq_property ?gate f =
  let context =
    match gate with
    | None -> Context.Base_trans
    | Some gate -> Context.Trans_and gate
  in
  Property.make ~name:"eq" ~context:(Context.Transaction context) f

let run_monitor ?gate (f, trace) =
  let monitor = Helpers.monitor (eq_property ?gate f) in
  for i = 0 to Trace.length trace - 1 do
    let entry = Trace.get trace i in
    Helpers.monitor_step monitor ~time:entry.Trace.time (Trace.lookup entry)
  done;
  monitor

(* The same points through the pool path: the sampler primed once per
   instant, then [Monitor.advance] on the pool's valuation, which may
   replay. *)
let run_pool_monitor ?gate (f, trace) =
  let sampler = Helpers.lookup_sampler () in
  let monitor = Helpers.monitor ~sampler (eq_property ?gate f) in
  for i = 0 to Trace.length trace - 1 do
    let entry = Trace.get trace i in
    let time = entry.Trace.time in
    Helpers.current_lookup := Trace.lookup entry;
    Monitor.advance monitor ~time ~valuation:(Sampler.prime_valuation sampler ~time)
  done;
  monitor

(* The instance counts of both paths agree.  The reference keeps one
   instance per activation, so it has no distinct-state counts: those
   are compared across the two paths only. *)
let monitors_agree ?gate (f, trace) =
  let monitor = run_monitor ?gate (f, trace) in
  let pooled = run_pool_monitor ?gate (f, trace) in
  let reference =
    match Reference_monitor.run `Legacy [ eq_property ?gate f ] trace with
    | [ (_, reference) ] -> reference
    | _ -> assert false
  in
  let failure_pairs =
    List.map (fun (f : Monitor.failure) -> (f.activation_time, f.failure_time))
  in
  let counts m =
    ( Monitor.pending m,
      Monitor.distinct_states m,
      Monitor.peak_instances m,
      Monitor.peak_distinct_states m )
  in
  counts pooled = counts monitor
  && failure_pairs (Monitor.failures pooled) = failure_pairs (Monitor.failures monitor)
  && Monitor.steps pooled = Monitor.steps monitor
  && ( failure_pairs (Monitor.failures monitor),
    ( Monitor.activations monitor,
      Monitor.passes monitor,
      Monitor.trivial_passes monitor,
      Monitor.pending monitor ),
    (Monitor.peak_instances monitor, Monitor.vacuous monitor),
    Monitor.evaluation_table monitor )
  = ( failure_pairs (Reference_monitor.failures reference),
      ( Reference_monitor.activations reference,
        Reference_monitor.passes reference,
        Reference_monitor.trivial_passes reference,
        Reference_monitor.pending reference ),
      ( Reference_monitor.peak_instances reference,
        Reference_monitor.vacuous reference ),
      Reference_monitor.evaluation_table reference )

let monitor_equivalence_cases =
  [ Helpers.qtest ~count:300 "monitor accounting engine-independent (general)"
      Helpers.arb_ltl_and_trace monitors_agree;
    Helpers.qtest ~count:300 "monitor accounting engine-independent (timed)"
      Helpers.arb_maybe_gated_timed_nnf_and_trace (fun (gate, arg) ->
        monitors_agree ?gate arg);
    Helpers.qtest ~count:200 "distinct states never exceed live instances"
      Helpers.arb_ltl_and_trace (fun arg ->
        let monitor = run_monitor arg in
        Monitor.peak_distinct_states monitor <= Monitor.peak_instances monitor) ]

(* --- bounded obligation universe ----------------------------------- *)

(* A [next_eps^tau] wait counts from the monitor's last step, not from
   an absolute instant, so a run on an approximately-timed model
   reaches the same obligation states whatever its length. *)
let universe_size model ~ops =
  let open Tabv_duv in
  Progression.reset_universe ();
  let properties, grid_properties = Models.properties_for model None in
  ignore
    (Models.run { Testbench.default with properties; grid_properties } model ~seed:42
       ~ops);
  (Progression.cache_stats ()).Progression.distinct_states

let universe_cases =
  [ case "TLM-AT obligation universe does not grow with run length" (fun () ->
      List.iter
        (fun model ->
          Alcotest.(check int)
            (Tabv_duv.Models.name model ^ " distinct states, 40 vs 400 ops")
            (universe_size model ~ops:40) (universe_size model ~ops:400))
        Tabv_duv.Models.[ Des56_at; Memctrl_at; Colorconv_at ]) ]

(* --- shared sampler ------------------------------------------------ *)

let lookup_of bindings name = List.assoc_opt name bindings
let env ~a ~b = lookup_of [ ("a", Expr.VBool a); ("b", Expr.VBool b) ]

let sampler_cases =
  [ case "shared sampler evaluates each atom once per instant" (fun () ->
      let sampler = Helpers.lookup_sampler () in
      let monitors =
        List.init 4 (fun i ->
            Helpers.monitor ~sampler
              (Parser.property_exn ~name:(Printf.sprintf "s%d" i)
                 "always(a || next(b))"))
      in
      for t = 0 to 9 do
        List.iter
          (fun m -> Helpers.monitor_step m ~time:(t * 10) (env ~a:(t mod 2 = 0) ~b:true))
          monitors
      done;
      Alcotest.(check bool) "cache shared across the pool" true
        (Sampler.evals sampler < Sampler.queries sampler);
      (* Each distinct atom is evaluated at most once per instant: the
         miss count is bounded by instants * distinct atoms (2). *)
      Alcotest.(check bool) "at most one eval per atom per instant" true
        (Sampler.evals sampler <= 10 * 2));
    case "shared sampler does not change verdicts" (fun () ->
      let shared = Helpers.lookup_sampler () in
      let mk sampler =
        Helpers.monitor ?sampler (Parser.property_exn ~name:"v" "always(a || next(b))")
      in
      let pooled = List.init 3 (fun _ -> mk (Some shared)) in
      let solo = mk None in
      let drive m =
        Helpers.monitor_step m ~time:0 (env ~a:false ~b:false);
        Helpers.monitor_step m ~time:10 (env ~a:true ~b:false);
        Helpers.monitor_step m ~time:20 (env ~a:false ~b:true)
      in
      List.iter drive pooled;
      drive solo;
      let failure_times m =
        List.map (fun f -> f.Monitor.failure_time) (Monitor.failures m)
      in
      List.iter
        (fun m ->
          Alcotest.(check (list int)) "same failures" (failure_times solo)
            (failure_times m))
        pooled);
    case "a slot another pool overwrote at the same instant is re-read" (fun () ->
      (* Two pools share the atom [a] but see different environments;
         at one instant each primes in turn, so the atom's cached slot
         holds the second pool's value when the first pool's next
         monitor reads it. *)
      let pool value =
        Sampler.create (function
          | "a" -> Some (fun () -> Expr.VBool value)
          | _ -> None)
      in
      let yes = pool true and no = pool false in
      let mk sampler =
        Monitor.create ~sampler (Parser.property_exn ~name:"a" "always(a)")
      in
      let first = mk yes and other = mk no and second = mk yes in
      List.iter (fun m -> Monitor.step m ~time:0) [ first; other; second ];
      Alcotest.(check int) "second monitor saw its own pool's value" 0
        (List.length (Monitor.failures second));
      Alcotest.(check int) "other pool failed" 1
        (List.length (Monitor.failures other));
      Alcotest.(check int) "one prime plus one re-read" 2 (Sampler.evals yes)) ]

let suite =
  ("interned",
   hashcons_cases @ step_equivalence_cases @ monitor_equivalence_cases
   @ universe_cases @ sampler_cases)
