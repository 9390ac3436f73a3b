open Tabv_psl

(* The failure record is shared with the report layer through
   [Tabv_obs.Checker_snapshot] (tabv_core sits below this library in
   the dependency order); re-exporting the definition keeps the fields
   usable under both module paths. *)
type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;
  failure_time : int;
}

(* One distinct live state with every activation time currently in
   that state (ascending; activation times are unique per monitor, so
   no counts are needed beyond the list length).  The paper's instance
   array [C] becomes [state -> activation times]: identical live
   instances are one hash-consed state, stepped once. *)
type live_state = {
  mutable state : Progression.t;
  mutable activations_at : int list;
}

(* Counter deltas of the most recent {!step}, for the stutter fast
   path: when the caller knows the relevant valuation is unchanged
   since the previous evaluation point, a step whose outcome cannot
   depend on anything else (no live obligations before or after, no
   failure recorded — or a gated-out no-op) is a pure function of the
   valuation and can be replayed by re-applying its deltas.  The
   [stuttered] flag records that the memoized step itself ran on an
   unchanged valuation, so its cache-counter deltas are already in
   the steady (memo-warm) regime and replaying them is exact; a step
   with zero cache misses is in that regime regardless (repeating it
   is guaranteed to hit the just-written memo entries again). *)
type step_memo = {
  m_steps : int;
  m_activations : int;
  m_passes : int;
  m_trivial : int;
  m_hits : int;
  m_misses : int;
  m_eligible : bool;
  m_stuttered : bool;
}

type t = {
  property : Property.t;
  temporal_body : bool;  (* vacuity only makes sense for temporal bodies *)
  initial : Progression.t;  (* obligation of a fresh instance *)
  repeating : bool;  (* outer [always]: activate per evaluation point *)
  gate_atom : Interned.t option;  (* gate as interned atom, for sharing *)
  sampler : Sampler.t;
  eval : Interned.t -> bool;  (* [Sampler.evaluator sampler] *)
  mutable live : live_state list;  (* insertion order *)
  mutable started : bool;
  mutable failures : failure list;  (* unordered; sorted on read *)
  mutable activations : int;
  mutable passes : int;
  mutable peak : int;
  mutable peak_distinct : int;
  mutable steps : int;
  mutable trivial_passes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* Delta-replay memoization is opt-in (offline re-checking pools):
     live checking must not pay the per-step capture. *)
  mutable memo_enabled : bool;
  mutable memo : step_memo option;
}

let gate_of_context = function
  | Context.Clock (Context.Base_clock | Context.Edge _ | Context.Named_edge _) ->
    None
  | Context.Clock
      (Context.Edge_and (_, gate) | Context.Named_edge_and (_, _, gate)) ->
    Some gate
  | Context.Transaction Context.Base_trans -> None
  | Context.Transaction (Context.Trans_and gate) -> Some gate

let create ~sampler property =
  let normalized = Nnf.convert (Ltl.demote_booleans property.Property.formula) in
  let repeating, body =
    match normalized with
    | Ltl.Always body -> (true, body)
    | other -> (false, other)
  in
  let initial = Progression.of_formula body in
  let gate_atom =
    Option.map Interned.atom (gate_of_context property.Property.context)
  in
  (* Batched sampling: hand the monitor's atom set (formula atoms plus
     the gate) to the sampler up front, where each atom is compiled
     once.  Progression only rewrites the registered formula, so the
     atom set is closed under stepping. *)
  ignore
    (Ltl.map_atoms
       (fun e ->
         Sampler.register sampler (Interned.atom e);
         e)
       body);
  Option.iter (Sampler.register sampler) gate_atom;
  {
    property;
    temporal_body = not (Simple_subset.is_boolean body);
    initial;
    repeating;
    gate_atom;
    sampler;
    eval = Sampler.evaluator sampler;
    live = [];
    started = false;
    failures = [];
    activations = 0;
    passes = 0;
    peak = 0;
    peak_distinct = 0;
    steps = 0;
    trivial_passes = 0;
    cache_hits = 0;
    cache_misses = 0;
    memo_enabled = false;
    memo = None;
  }

let property t = t.property

let record_failure t ~activation_time ~failure_time =
  t.failures <-
    { property_name = t.property.Property.name; activation_time; failure_time }
    :: t.failures

(* --- stepping: multiset of hash-consed states ----------------------- *)

let rec merge_sorted a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    if x <= y then x :: merge_sorted xs b else y :: merge_sorted a ys

(* Evaluation: every live record steps in place — each distinct state
   once, no matter how many live instances sit in it. *)
let rec step_live stats ~time eval = function
  | [] -> ()
  | ls :: rest ->
    ls.state <- Progression.step_atoms_in stats ~time eval ls.state;
    step_live stats ~time eval rest

let resolved ls = Progression.is_true ls.state || Progression.is_false ls.state

let rec holds state = function
  | [] -> false
  | ls :: rest -> ls.state == state || holds state rest

(* True when stepping left nothing to tidy: no record resolved and no
   two records reached the same state.  States are hash-consed, so
   [==] is structural identity. *)
let rec settled = function
  | [] -> true
  | ls :: rest -> (not (resolved ls)) && (not (holds ls.state rest)) && settled rest

(* The record of [live] sitting in [state].
   @raise Not_found when there is none. *)
let rec holder state = function
  | [] -> raise Not_found
  | ls :: rest -> if ls.state == state then ls else holder state rest

(* Retire resolved records (a pass per activation, or a failure per
   activation) and fold each record into the first one that reached
   the same state, keeping insertion order.  A linear scan beats a
   per-step hashtable: the distinct-state count is small by
   construction (that is the point of the multiset). *)
let rec settle t ~time kept = function
  | [] -> List.rev kept
  | ls :: rest ->
    if Progression.is_true ls.state then begin
      t.passes <- t.passes + List.length ls.activations_at;
      settle t ~time kept rest
    end
    else if Progression.is_false ls.state then begin
      List.iter
        (fun activation_time -> record_failure t ~activation_time ~failure_time:time)
        ls.activations_at;
      settle t ~time kept rest
    end
    else
      match holder ls.state kept with
      | first ->
        first.activations_at <- merge_sorted first.activations_at ls.activations_at;
        settle t ~time kept rest
      | exception Not_found -> settle t ~time (ls :: kept) rest

(* Activation of a new instance. *)
let activate t stats ~time =
  let ob = Progression.step_atoms_in stats ~time t.eval t.initial in
  if Progression.is_true ob then begin
    t.passes <- t.passes + 1;
    t.trivial_passes <- t.trivial_passes + 1
  end
  else begin
    t.activations <- t.activations + 1;
    if Progression.is_false ob then
      record_failure t ~activation_time:time ~failure_time:time
    else
      match holder ob t.live with
      | ls -> ls.activations_at <- merge_sorted ls.activations_at [ time ]
      | exception Not_found ->
        t.live <- t.live @ [ { state = ob; activations_at = [ time ] } ]
  end

(* Nothing here allocates unless the multiset changes shape: a step
   that keeps every live state and activates trivially (the common
   idle step) only writes fields. *)
let step_states t ~time =
  (* One DLS lookup per step: every state of the multiset steps, and
     every counter snapshot reads, through this handle. *)
  let stats = Progression.handle () in
  let hits0 = Progression.handle_hits stats in
  let misses0 = Progression.handle_misses stats in
  let bypassed0 = Progression.handle_bypassed stats in
  step_live stats ~time t.eval t.live;
  if not (settled t.live) then t.live <- settle t ~time [] t.live;
  if t.repeating || not t.started then activate t stats ~time;
  t.cache_hits <- t.cache_hits + (Progression.handle_hits stats - hits0);
  t.cache_misses <-
    t.cache_misses
    + (Progression.handle_misses stats - misses0)
    + (Progression.handle_bypassed stats - bypassed0);
  let distinct = List.length t.live in
  if distinct > t.peak_distinct then t.peak_distinct <- distinct

let live_instances t =
  List.fold_left (fun acc ls -> acc + List.length ls.activations_at) 0 t.live

let step_core t ~time =
  Sampler.prime t.sampler ~time;
  let gated_out =
    match t.gate_atom with
    | None -> false
    | Some gate -> not (t.eval gate)
  in
  if not gated_out then begin
    t.steps <- t.steps + 1;
    step_states t ~time;
    t.started <- true;
    let live = live_instances t in
    if live > t.peak then t.peak <- live
  end

let enable_memo t = t.memo_enabled <- true

let step ?(stuttered = false) t ~time =
  if not t.memo_enabled then step_core t ~time
  else begin
    let live_before = t.live == [] in
    let steps0 = t.steps in
    let activations0 = t.activations in
    let passes0 = t.passes in
    let trivial0 = t.trivial_passes in
    let hits0 = t.cache_hits in
    let misses0 = t.cache_misses in
    let failures0 = t.failures in
    step_core t ~time;
    let live_after = t.live == [] in
    let d_steps = t.steps - steps0 in
    t.memo <-
      Some
        {
          m_steps = d_steps;
          m_activations = t.activations - activations0;
          m_passes = t.passes - passes0;
          m_trivial = t.trivial_passes - trivial0;
          m_hits = t.cache_hits - hits0;
          m_misses = t.cache_misses - misses0;
          (* Replayable iff the step touched nothing but counters: no
             failure was recorded (failure records carry the evaluation
             time) and no live obligation existed before or after (a
             gated-out step, [d_steps = 0], is a no-op either way). *)
          m_eligible =
            t.failures == failures0
            && (d_steps = 0 || (live_before && live_after));
          m_stuttered = stuttered;
        }
  end

let can_replay t =
  match t.memo with
  | Some m -> m.m_eligible && (m.m_stuttered || m.m_misses = 0)
  | None -> false

let replay t ~count =
  if count > 0 then
    match t.memo with
    | Some m ->
      t.steps <- t.steps + (count * m.m_steps);
      t.activations <- t.activations + (count * m.m_activations);
      t.passes <- t.passes + (count * m.m_passes);
      t.trivial_passes <- t.trivial_passes + (count * m.m_trivial);
      t.cache_hits <- t.cache_hits + (count * m.m_hits);
      t.cache_misses <- t.cache_misses + (count * m.m_misses)
    | None -> invalid_arg "Monitor.replay: no step to replay"

let step_stuttered t ~time:_ =
  if can_replay t then begin
    replay t ~count:1;
    true
  end
  else false

(* --- reporting ------------------------------------------------------ *)

(* Failures are reported deterministically: chronological by failure
   time, and inside one evaluation point in activation-time order —
   independent of the internal instance representation. *)
let failures t =
  List.stable_sort
    (fun a b ->
      match compare a.failure_time b.failure_time with
      | 0 -> compare a.activation_time b.activation_time
      | c -> c)
    (List.rev t.failures)

let peak_instances t = t.peak
let activations t = t.activations
let passes t = t.passes
let steps t = t.steps
let pending t = live_instances t
let distinct_states t = List.length t.live
let peak_distinct_states t = t.peak_distinct
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0. else float_of_int t.cache_hits /. float_of_int total

let sampler t = t.sampler

let evaluation_table t =
  List.sort compare
    (List.concat_map
       (fun ls ->
         match Progression.next_evaluation_time ls.state with
         | Some target -> List.map (fun _ -> target) ls.activations_at
         | None -> [])
       t.live)

let trivial_passes t = t.trivial_passes
let vacuous t = t.temporal_body && t.steps > 0 && t.activations = 0

let snapshot t =
  {
    Tabv_obs.Checker_snapshot.property_name = t.property.Property.name;
    engine = "progression";
    activations = t.activations;
    passes = t.passes;
    trivial_passes = t.trivial_passes;
    vacuous = vacuous t;
    peak_instances = t.peak;
    peak_distinct_states = t.peak_distinct;
    pending = live_instances t;
    steps = t.steps;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    failures = failures t;
  }

let pp_failure ppf f =
  Format.fprintf ppf "%s: instance fired at %dns failed at %dns" f.property_name
    f.activation_time f.failure_time
