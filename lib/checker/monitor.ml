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

type t = {
  property : Property.t;
  temporal_body : bool;  (* vacuity only makes sense for temporal bodies *)
  initial : Progression.t;  (* obligation of a fresh instance *)
  repeating : bool;  (* outer [always]: activate per evaluation point *)
  gate_atom : Interned.t option;  (* gate as interned atom, for sharing *)
  sampler : Sampler.t;
  eval : Interned.t -> bool;  (* [Sampler.evaluator sampler] *)
  counts : Sampler.counters;  (* [Sampler.counters sampler] *)
  stats : Progression.handle;  (* the creating domain's memo statistics *)
  mutable live : live_state list;  (* insertion order *)
  mutable n_live : int;  (* activation times held in [live] *)
  mutable n_distinct : int;  (* records in [live] *)
  mutable last_step : int;
      (* instant [live] was last stepped: its waits count from here *)
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
  (* Stutter replay.  A real step taken by {!advance} that changed
     nothing but counters leaves [replayable] set, its counter deltas
     in [d_*], the sampler bits of the atoms it read in [memo_mask] and
     their values in [memo_valuation].  A later evaluation point with
     the same values on [memo_mask] re-applies the deltas instead of
     stepping.  Such a step reads the gate ([gate_mask]) and, when it
     activates, the atoms of [initial]'s memo row ([activation_mask],
     [-1] until first needed). *)
  gate_mask : int;
  mutable activation_mask : int;
  mutable replayable : bool;
  mutable memo_mask : int;
  mutable memo_valuation : int;
  mutable d_steps : int;
  mutable d_trivial : int;
  mutable d_hits : int;
  mutable d_queries : int;
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
    counts = Sampler.counters sampler;
    stats = Progression.handle ();
    live = [];
    n_live = 0;
    n_distinct = 0;
    last_step = 0;
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
    gate_mask =
      (match gate_atom with
       | Some gate -> Sampler.mask sampler gate
       | None -> 0);
    activation_mask = -1;
    replayable = false;
    memo_mask = 0;
    memo_valuation = -1;
    d_steps = 0;
    d_trivial = 0;
    d_hits = 0;
    d_queries = 0;
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
let rec step_live stats ~dt eval = function
  | [] -> ()
  | ls :: rest ->
    ls.state <- Progression.step_atoms_in stats ~dt eval ls.state;
    step_live stats ~dt eval rest

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

(* A record of [n] activation times leaves the multiset. *)
let retire t n =
  t.n_live <- t.n_live - n;
  t.n_distinct <- t.n_distinct - 1

(* Retire resolved records (a pass per activation, or a failure per
   activation) and fold each record into the first one that reached
   the same state, keeping insertion order.  A linear scan beats a
   per-step hashtable: the distinct-state count is small by
   construction (that is the point of the multiset). *)
let rec settle t ~time kept = function
  | [] -> List.rev kept
  | ls :: rest ->
    if Progression.is_true ls.state then begin
      let n = List.length ls.activations_at in
      t.passes <- t.passes + n;
      retire t n;
      settle t ~time kept rest
    end
    else if Progression.is_false ls.state then begin
      List.iter
        (fun activation_time -> record_failure t ~activation_time ~failure_time:time)
        ls.activations_at;
      retire t (List.length ls.activations_at);
      settle t ~time kept rest
    end
    else
      match holder ls.state kept with
      | first ->
        first.activations_at <- merge_sorted first.activations_at ls.activations_at;
        t.n_distinct <- t.n_distinct - 1;
        settle t ~time kept rest
      | exception Not_found -> settle t ~time (ls :: kept) rest

(* Activation of a new instance.  [initial] holds no wait, so its step
   does not depend on [dt]. *)
let activate t ~time =
  let ob = Progression.step_atoms_in t.stats ~dt:0 t.eval t.initial in
  if Progression.is_true ob then begin
    t.passes <- t.passes + 1;
    t.trivial_passes <- t.trivial_passes + 1
  end
  else begin
    t.activations <- t.activations + 1;
    if Progression.is_false ob then
      record_failure t ~activation_time:time ~failure_time:time
    else begin
      t.n_live <- t.n_live + 1;
      match holder ob t.live with
      | ls -> ls.activations_at <- merge_sorted ls.activations_at [ time ]
      | exception Not_found ->
        t.n_distinct <- t.n_distinct + 1;
        t.live <- t.live @ [ { state = ob; activations_at = [ time ] } ]
    end
  end

(* Nothing here allocates unless the multiset changes shape: a step
   that keeps every live state and activates trivially (the common
   idle step) only writes fields.  Every state of the multiset steps,
   and every counter snapshot reads, through the monitor's
   {!Progression.handle}. *)
let step_states t ~time =
  let stats = t.stats in
  let hits0 = stats.hits in
  let misses0 = stats.misses + stats.bypassed in
  if t.live != [] then begin
    step_live stats ~dt:(time - t.last_step) t.eval t.live;
    if not (settled t.live) then t.live <- settle t ~time [] t.live
  end;
  if t.repeating || not t.started then activate t ~time;
  t.last_step <- time;
  t.cache_hits <- t.cache_hits + (stats.hits - hits0);
  t.cache_misses <- t.cache_misses + (stats.misses + stats.bypassed - misses0)

(* A step on a sampler primed at [time]. *)
let step_primed t ~time =
  let gated_out =
    match t.gate_atom with
    | None -> false
    | Some gate -> not (t.eval gate)
  in
  if not gated_out then begin
    t.steps <- t.steps + 1;
    step_states t ~time;
    t.started <- true;
    if t.n_distinct > t.peak_distinct then t.peak_distinct <- t.n_distinct;
    if t.n_live > t.peak then t.peak <- t.n_live
  end

(* The gate's bit plus the bits of the atoms [initial]'s memo row reads:
   everything an idle, memo-hit activation step reads.  The row is
   fixed once written, so this is computed once. *)
let activation_mask t =
  if t.activation_mask < 0 then begin
    let row =
      match Progression.memo_row t.initial with
      | Progression.Dense_row atoms | Progression.Hashed_row atoms -> atoms
      | Progression.Unstepped | Progression.Unmemoizable_row
      | Progression.Rows_per_dt ->
        [||]
    in
    t.activation_mask <-
      Array.fold_left
        (fun acc atom -> acc lor Sampler.mask t.sampler atom)
        t.gate_mask row
  end;
  t.activation_mask

(* A real step under the pool's [valuation] that records its counter
   deltas.  It is replayable only if it changed nothing but counters:
   the sampler's prime completed, no failure was recorded, no cache or
   sampler-slot miss occurred, and either it was gated out (a no-op on
   any multiset) or no instance was live before or after it and it did
   not start a non-repeating monitor (whose later steps no longer
   activate).  An activation without a miss was a memo hit, so it
   interned nothing; and with nothing live, no wait counts from the
   [last_step] a replay leaves behind.  The flag is cleared first, so a
   step that raises is never replayed.  The caller primed the sampler
   at [time]: that prime produced [valuation]. *)
let step_recording t ~time ~valuation =
  t.replayable <- false;
  let idle_before = t.live == [] && (t.repeating || t.started) in
  if t.gate_atom == None && not idle_before then
    (* Ungated and busy: the step cannot be replayable, so skip the
       capture. *)
    step_primed t ~time
  else begin
    let steps0 = t.steps
    and trivial0 = t.trivial_passes
    and hits0 = t.cache_hits
    and misses0 = t.cache_misses
    and failures0 = t.failures
    and queries0 = t.counts.queries
    and evals0 = t.counts.evals in
    step_primed t ~time;
    let d_steps = t.steps - steps0 in
    t.d_steps <- d_steps;
    t.d_trivial <- t.trivial_passes - trivial0;
    t.d_hits <- t.cache_hits - hits0;
    t.d_queries <- t.counts.queries - queries0;
    t.replayable <-
      Sampler.complete t.sampler
      && t.failures == failures0
      && t.cache_misses = misses0
      && t.counts.evals = evals0
      && (d_steps = 0 || (idle_before && t.live == []));
    if t.replayable then begin
      let mask =
        if d_steps = 0 || not t.repeating then t.gate_mask else activation_mask t
      in
      t.memo_mask <- mask;
      t.memo_valuation <- valuation land mask
    end
  end

let step t ~time =
  t.replayable <- false;
  Sampler.prime t.sampler ~time;
  step_primed t ~time

(* Re-apply the recorded deltas once: the monitor's counters, the memo
   hits in the universe and the sampler queries the step would have
   made.  A replayable step never activates non-trivially, settles a
   live instance or misses, so its only passes are trivial ones and the
   other counters have no delta to re-apply. *)
let replay t =
  t.steps <- t.steps + t.d_steps;
  t.passes <- t.passes + t.d_trivial;
  t.trivial_passes <- t.trivial_passes + t.d_trivial;
  t.cache_hits <- t.cache_hits + t.d_hits;
  t.stats.hits <- t.stats.hits + t.d_hits;
  t.counts.queries <- t.counts.queries + t.d_queries

let advance t ~time ~valuation =
  if valuation < 0 then
    (* Without the pool's valuation no later [advance] could replay this
       step: a plain step skips the capture. *)
    step t ~time
  else if t.replayable && valuation land t.memo_mask = t.memo_valuation then
    replay t
  else step_recording t ~time ~valuation

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
let live_instances t = t.n_live
let pending t = t.n_live
let distinct_states t = t.n_distinct
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
         match Progression.next_evaluation_in ls.state with
         | Some remaining ->
           List.map (fun _ -> t.last_step + remaining) ls.activations_at
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
    pending = t.n_live;
    steps = t.steps;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    failures = failures t;
  }

let pp_failure ppf f =
  Format.fprintf ppf "%s: instance fired at %dns failed at %dns" f.property_name
    f.activation_time f.failure_time
