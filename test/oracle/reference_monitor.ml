open Tabv_psl

(* The monitor's original list-of-instances representation: one live
   obligation per activation, stepped independently.  The production
   {!Tabv_checker.Monitor} collapses identical live states into a
   hash-consed multiset; this is the unoptimised shape it must stay
   counter-identical to. *)

type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;
  failure_time : int;
}

type backend =
  [ `Legacy
  | `Automaton
  ]

type engine =
  | Legacy_engine
  | Auto_engine of Automaton.t

type obligation =
  | Legacy_ob of Legacy.t
  | Auto_ob of Automaton.state

type instance = {
  activated_at : int;
  mutable obligation : obligation;
}

type t = {
  property : Property.t;
  body : Ltl.t;
  temporal_body : bool;
  engine : engine;
  repeating : bool;  (* outer [always]: activate per evaluation point *)
  gate : Expr.t option;
  mutable instances : instance list;  (* newest first *)
  mutable started : bool;
  mutable failures : failure list;  (* unordered; sorted on read *)
  mutable activations : int;
  mutable passes : int;
  mutable trivial_passes : int;
  mutable peak : int;
  mutable steps : int;
}

let gate_of_context = function
  | Context.Clock (Context.Base_clock | Context.Edge _ | Context.Named_edge _) ->
    None
  | Context.Clock
      (Context.Edge_and (_, gate) | Context.Named_edge_and (_, _, gate)) ->
    Some gate
  | Context.Transaction Context.Base_trans -> None
  | Context.Transaction (Context.Trans_and gate) -> Some gate

let create backend property =
  let normalized = Nnf.convert (Ltl.demote_booleans property.Property.formula) in
  let repeating, body =
    match normalized with
    | Ltl.Always body -> (true, body)
    | other -> (false, other)
  in
  let engine =
    match backend with
    | `Legacy -> Legacy_engine
    | `Automaton -> Auto_engine (Automaton.compile ~max_states:256 body)
  in
  {
    property;
    body;
    temporal_body = not (Simple_subset.is_boolean body);
    engine;
    repeating;
    gate = gate_of_context property.Property.context;
    instances = [];
    started = false;
    failures = [];
    activations = 0;
    passes = 0;
    trivial_passes = 0;
    peak = 0;
    steps = 0;
  }

let record_failure t ~activation_time ~failure_time =
  t.failures <-
    { property_name = t.property.Property.name; activation_time; failure_time }
    :: t.failures

let fresh_obligation t =
  match t.engine with
  | Legacy_engine -> Legacy_ob (Legacy.of_formula t.body)
  | Auto_engine automaton -> Auto_ob (Automaton.initial automaton)

(* The automaton engine evaluates the atoms once per evaluation point
   and every instance steps by table lookup. *)
let step_obligation t ~time lookup valuation = function
  | Legacy_ob ob -> Legacy_ob (Legacy.step ~time lookup ob)
  | Auto_ob state ->
    (match t.engine with
     | Auto_engine automaton ->
       Auto_ob (Automaton.step_valuation automaton state valuation)
     | Legacy_engine -> assert false)

let verdict t = function
  | Legacy_ob ob -> Legacy.verdict ob
  | Auto_ob state ->
    (match t.engine with
     | Auto_engine automaton -> Automaton.verdict automaton state
     | Legacy_engine -> assert false)

let step_instances t ~time lookup =
  let valuation =
    match t.engine with
    | Auto_engine automaton -> Automaton.valuation automaton lookup
    | Legacy_engine -> 0
  in
  (* Evaluation of live instances. *)
  t.instances <-
    List.filter
      (fun instance ->
        instance.obligation <-
          step_obligation t ~time lookup valuation instance.obligation;
        match verdict t instance.obligation with
        | Some true ->
          t.passes <- t.passes + 1;
          false
        | Some false ->
          record_failure t ~activation_time:instance.activated_at
            ~failure_time:time;
          false
        | None -> true)
      t.instances;
  (* Activation of a new instance. *)
  let activate () =
    let obligation =
      step_obligation t ~time lookup valuation (fresh_obligation t)
    in
    match verdict t obligation with
    | Some true ->
      t.passes <- t.passes + 1;
      t.trivial_passes <- t.trivial_passes + 1
    | Some false ->
      t.activations <- t.activations + 1;
      record_failure t ~activation_time:time ~failure_time:time
    | None ->
      t.activations <- t.activations + 1;
      t.instances <- { activated_at = time; obligation } :: t.instances
  in
  if t.repeating || not t.started then activate ()

let step t ~time lookup =
  let gated_out =
    match t.gate with
    | None -> false
    | Some gate -> not (Expr.eval lookup gate)
  in
  if not gated_out then begin
    t.steps <- t.steps + 1;
    step_instances t ~time lookup;
    t.started <- true;
    let live = List.length t.instances in
    if live > t.peak then t.peak <- live
  end

let failures t =
  List.stable_sort
    (fun a b ->
      match compare a.failure_time b.failure_time with
      | 0 -> compare a.activation_time b.activation_time
      | c -> c)
    (List.rev t.failures)

let activations t = t.activations
let passes t = t.passes
let trivial_passes t = t.trivial_passes
let pending t = List.length t.instances
let peak_instances t = t.peak
let steps t = t.steps
let vacuous t = t.temporal_body && t.steps > 0 && t.activations = 0

let evaluation_table t =
  List.sort compare
    (List.filter_map
       (fun instance ->
         match instance.obligation with
         | Legacy_ob ob -> Legacy.next_evaluation_time ob
         | Auto_ob _ -> None)
       t.instances)

(* Every sample steps every monitor, never a replay, exactly as the
   bench harness feeds the shipped monitors ([Monitor.step] at every
   sample), so timing comparisons share one replay loop. *)
let run backend properties trace =
  let pool = List.map (fun p -> (p, create backend p)) properties in
  Seq.iter
    (function
      | Tabv_trace.Entry.Sample { time; env } ->
        let lookup name = List.assoc_opt name env in
        List.iter (fun (_, m) -> step m ~time lookup) pool
      | Tabv_trace.Entry.Span _ -> ())
    (Tabv_trace.Entry.of_trace trace);
  pool
