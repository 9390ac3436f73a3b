open Tabv_psl

(** Property monitor: manages checker instances for one property.

    Mirrors the wrapper behaviour of Sec. IV of the paper:
    {ol
    {- {e activation}: for an [always body] property a fresh checker
       instance of [body] is activated at every evaluation point that
       satisfies the property's context gate; trivially-true instances
       are not registered;}
    {- {e evaluation}: every evaluation point steps all live
       instances; an instance whose timed obligation was skipped past
       raises a failure (handled inside {!Progression});}
    {- {e reset and reuse}: completed instances are retired (the
       paper's fixed-size array [C] becomes a multiset of hash-consed
       states mapping each distinct residual state to the activation
       times currently in it — identical live instances collapse and
       are stepped once, while failure attribution per activation time
       is preserved).}}

    For properties that are not of the form [always body], a single
    instance of the whole formula is activated at the first evaluation
    point. *)

(** Re-export of {!Tabv_obs.Checker_snapshot.failure}: the same record
    flows from the monitor through the testbenches into the report
    emitters without conversion. *)
type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;  (** when the failing instance fired *)
  failure_time : int;  (** evaluation point that raised the failure *)
}

type t

(** [create ~sampler property] synthesizes the checker by interned
    formula progression ({!Progression}).  The formula is normalised
    (boolean demotion + NNF) internally, so any parser output is
    accepted.  The context gate is taken from the property's context
    ([Edge_and]/[Trans_and] expressions).  Every atom of the formula
    and the gate is registered (compiled) with [sampler], the pool's
    window onto the environment: atom evaluations are shared with
    every other monitor holding the same sampler (one evaluation per
    distinct atom per instant).  The monitor keeps the calling
    domain's {!Progression.handle}: it steps in the domain and the
    {!Progression} universe that created it, so it must not outlive a
    {!Progression.reset_universe} or move to another domain. *)
val create : sampler:Sampler.t -> Property.t -> t

val property : t -> Property.t

(** {2 Stepping and stutter replay}

    An idle evaluation point usually changes nothing but counters: no
    instance is live before or after it, the activation passes
    trivially from the transition memo.  Such a step is a pure
    function of the values of the atoms it reads — the context gate
    and, when it activates, the atoms of the initial state's memo row
    ({!Progression.memo_row}) — so when those values repeat,
    re-applying the step's counter deltas is indistinguishable from
    stepping: every counter of the monitor, of the {!Progression}
    universe and of the {!Sampler} moves exactly as a real step would
    move it.  {!advance} is the one stepper that replays; live pools
    ({!Checker.attach}) and offline pools ({!Offline}) both use it.

    A real step is {e replayable} only if it changed nothing but
    counters: the sampler's prime completed (no atom raised), no
    failure was recorded, no transition-memo or sampler-slot miss
    occurred, and either the context gate held the step out, or no
    instance was live before or after it and it was not the step that
    starts a non-repeating monitor.  Waits count from the monitor's
    last step, not from an absolute instant, so activating a
    [next_eps^tau] property is an ordinary memo hit and its idle steps
    replay like any other. *)

(** Consume one evaluation point at instant [time] with a real step,
    never a replay.  This is the stepper that primes: the monitor
    primes its sampler first ({!Sampler.prime}, idempotent per
    instant), so the environment is read once per instant however many
    monitors share the sampler. *)
val step : t -> time:int -> unit

(** The pool stepper.  [valuation] is the pool's
    {!Sampler.prime_valuation} at [time], or [-1] when unknown.  When
    it is known, the previous real step was replayable and this
    valuation agrees with that step's on every atom it read, the step
    is replayed; otherwise a real step is taken, recording its deltas
    when the valuation is known.  Allocation free either way on an
    idle step.  With a known [valuation] it never primes: it reads the
    caller's prime that produced it (live, the pool's at [time];
    offline, the last changed sample's).  With [-1] it is {!step}. *)
val advance : t -> time:int -> valuation:int -> unit

(** End-of-simulation summary, deterministically ordered:
    chronological by failure time, and within one evaluation point in
    ascending activation-time order — independent of the internal
    instance representation. *)
val failures : t -> failure list

(** Live (pending) instances right now (activation count, i.e. the
    multiset cardinality — not the number of distinct states). *)
val live_instances : t -> int

(** Peak number of simultaneously live instances — the size the
    paper's preallocated instance array would need. *)
val peak_instances : t -> int

(** Distinct hash-consed states currently live. *)
val distinct_states : t -> int

(** Peak number of simultaneously live distinct states — the size the
    state multiset actually needs, usually far below {!peak_instances}. *)
val peak_distinct_states : t -> int

(** Total instances activated (excluding trivially-true ones). *)
val activations : t -> int

(** Instances that completed with a pass verdict (including trivial
    ones). *)
val passes : t -> int

(** Activation attempts that were trivially true at the firing point
    (e.g. an implication whose antecedent did not hold).  A property
    whose every evaluation point was trivial passed {e vacuously}. *)
val trivial_passes : t -> int

(** True when a {e temporal} property was evaluated but never
    non-trivially activated — e.g. an implication whose antecedent
    never fired: a vacuous pass that deserves a warning.  Pure boolean
    invariants resolve instantly by nature and are never flagged. *)
val vacuous : t -> bool

(** Evaluation points consumed (after context gating). *)
val steps : t -> int

(** Pending instances are inconclusive at end of simulation. *)
val pending : t -> int

(** {2 Transition-cache statistics} *)

(** Steps of this monitor answered from the shared transition memo. *)
val cache_hits : t -> int

(** Steps of this monitor that ran the rewriting (including states
    with too many atoms to memoize). *)
val cache_misses : t -> int

(** [hits / (hits + misses)], 0 if the monitor never stepped. *)
val cache_hit_rate : t -> float

(** The per-instant atom sampler this monitor evaluates through. *)
val sampler : t -> Sampler.t

(** The wrapper's "evaluation table" (Sec. IV): the next required
    evaluation instant of every live instance that is waiting on a
    timed [next_eps^tau] obligation, sorted ascending — the instant of
    the monitor's last step plus the wait left
    ({!Progression.next_evaluation_in}). *)
val evaluation_table : t -> int list

(** One-shot record of every counter above plus the deterministic
    failure list — the single stats currency consumed by
    [Tabv_core.Report_json] and the testbenches. *)
val snapshot : t -> Tabv_obs.Checker_snapshot.t

val pp_failure : Format.formatter -> failure -> unit
