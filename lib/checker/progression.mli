open Tabv_psl

(** Checker synthesis by formula progression (rewriting) over
    hash-consed terms.

    A property instance is an {e obligation}; consuming one evaluation
    point (a clock event at RTL, a transaction event at TLM) rewrites
    the obligation into a residual obligation using the standard
    progression rules:
    {v
      prog(p until q)   = prog(q) or (prog(p) and (p until q))
      prog(p release q) = prog(q) and (prog(p) or (p release q))
      prog(always p)    = prog(p) and always p
      prog(eventually p)= prog(p) or eventually p
      prog(next[1] p)   = p    (wait one more event)
    v}

    The paper's [next_eps^tau] operator progresses into a timed
    obligation [at eps] (Def. III.3), a wait measured from the step
    that started it.  Each step passes the [dt] elapsed since the
    owning monitor's previous step: a wait with more than [dt] left
    shrinks by [dt], one with exactly [dt] left evaluates its operand,
    and one with less than [dt] left {e fails}, because an event
    arrived past its instant without one at it — exactly the wrapper
    behaviour of Sec. IV.  As there, the automaton is time-free and
    the monitor's evaluation table says when each wait is due.

    {2 Interning and the transition memo}

    Obligations are hash-consed: each distinct residual formula is one
    heap node with a dense unique id, so identical live instances
    collapse into one state.  The result of one step is a pure
    function of [dt] and of the values of the atoms the progression
    reads, and the atom read-set of a fixed state and [dt] is itself
    fixed (the progression never short-circuits); a domain-global
    [(state, dt, atom valuation) -> state] memo therefore tables the
    transition relation lazily, building the paper's explicit checker
    automaton over reachable states only.  Only a state holding a wait
    depends on [dt]: it keeps one row per [dt], with every [dt] past
    its longest wait sharing one row (they all fail every wait), so
    its row count is bounded by [eps] over the event grid.  Every
    other state keeps a single row.  A row reading at most eight atoms
    is a dense array indexed by the packed valuation, so a hit is one
    array load; wider rows (up to 62 atoms) keep a hash table.

    {2 Domain safety}

    The obligation hash-cons table, the transition memo and its
    statistics are all domain-local ([Domain.DLS]), mirroring
    {!Interned}: concurrent workers (e.g. the campaign runner's job
    domains) each build a private checker automaton with no shared
    mutable state.  Obligations must not flow between domains.  The
    canonical True/False states are the one deliberate exception —
    they are shared so {!is_true}/{!is_false} stay a single physical
    comparison, which is safe because those two states never mutate
    (their transition memo is never written). *)

type t

exception Not_in_nnf of Ltl.t

(** Initial obligation of a formula.
    @raise Not_in_nnf on formulas outside negation normal form. *)
val of_formula : Ltl.t -> t

(** Unique id of the hash-consed state (structurally equal obligations
    share one id — usable as a multiset key). *)
val id : t -> int

val is_true : t -> bool
val is_false : t -> bool

(** True when the obligation still contains a timed [at] node, i.e. a
    [next_eps^tau] wait: only such a state's step depends on [dt]. *)
val has_timed_wait : t -> bool

(** Nanoseconds from the state's last step until its earliest pending
    timed evaluation, if any — added to that step's instant, the
    wrapper's "evaluation table" entry for this instance. *)
val next_evaluation_in : t -> int option

(** Obligation verdict at end of simulation: [Some true] iff resolved
    true, [Some false] iff resolved false, [None] when still pending
    (inconclusive). *)
val verdict : t -> bool option

val pp : Format.formatter -> t -> unit

(** {2 Transition-cache statistics} *)

type cache_stats = {
  cache_hits : int;  (** steps answered from the transition memo *)
  cache_misses : int;  (** steps that had to run the rewriting *)
  cache_bypassed : int;  (** steps of states with too many atoms *)
  distinct_states : int;  (** hash-consed obligations ever created *)
  distinct_transitions : int;  (** memoized (state, dt, valuation) triples *)
  interned_formulas : int;  (** hash-consed LTL terms ever created *)
}

(** Domain-global counters (the memo is shared by every monitor of the
    calling domain, so a caller interested in per-monitor attribution
    snapshots this before and after stepping — see {!Monitor}). *)
val cache_stats : unit -> cache_stats

(** Replace the calling domain's obligation universe (hash-cons table,
    transition memo, statistics) {e and} its interned-formula universe
    ({!Interned.reset_universe}) with fresh, empty ones.  The campaign
    runner calls this at the start of every job so a job's cache
    statistics depend only on the job itself, never on which worker it
    landed on or what ran there before.  Must only be called between
    runs, when no live monitor or obligation from the old universe
    will be stepped again. *)
val reset_universe : unit -> unit

(** {2 Stepping}

    Reaching the calling domain's universe costs one [Domain.DLS]
    lookup.  That lookup is cheap but not free, and a monitor would pay
    it once per live state per instant plus six times per step for the
    before/after counter snapshots.  A {!handle} amortises all of that
    to a single lookup per monitor step: grab it once, then step every
    state and read every counter through it. *)

(** The calling domain's live statistics record, read (and, by a
    monitor replaying a memo-hit step, credited) in place.  Valid until
    the next {!reset_universe}; must not be shared across domains. *)
type handle = {
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable transitions : int;
}

(** One [Domain.DLS] lookup. *)
val handle : unit -> handle

(** A state's transition-memo row, with the atoms a memoized step of
    the state reads (first-read order): a step that hits the row reads
    exactly these. *)
type memo_row =
  | Unstepped  (** never stepped (or a canonical True/False state) *)
  | Dense_row of Interned.t array
      (** at most eight atoms: successors by packed valuation *)
  | Hashed_row of Interned.t array  (** nine to 62 atoms: a hash table *)
  | Unmemoizable_row  (** more than 62 atoms: always rewritten *)
  | Rows_per_dt  (** a state holding a wait: one row per [dt] *)

val memo_row : t -> memo_row

(** [step_atoms_in handle ~dt eval ob] consumes the evaluation point
    [dt] ns after the owning monitor's previous step: [eval] gives the
    value of each interned [Atom] node the progression reads (the
    monitor passes its sampler's {!Sampler.evaluator}).  [dt] only
    matters to a state holding a wait.  Cache traffic is counted into
    [handle] with plain field writes. *)
val step_atoms_in : handle -> dt:int -> (Interned.t -> bool) -> t -> t
