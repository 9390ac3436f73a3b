open Tabv_psl

(** Shared evaluation-point sampler: the checker pool's only window
    onto the DUV.

    A sampler is created over the pool's {!Expr.resolver}.  Each atom
    a monitor registers is compiled once against it ({!Expr.compile});
    after that, sampling runs closures and never looks a signal name
    up.  Values are cached per instant inside the interned atom nodes
    themselves (a stamped scratch slot, see {!Interned.set_sample}),
    so a cache hit is one load and one compare.  N monitors attached
    to the same socket/clock share one sampler, so each distinct atom
    is evaluated once per instant instead of once per live checker
    instance per monitor (the paper's wrapper samples the environment
    once per evaluation point; this generalizes that to a whole
    wrapper pool).

    The cache is invalidated whenever the instant changes; a sampler
    must only be shared by monitors that observe the same environment
    within one delta phase of an instant. *)

type t

(** [create resolve] is an empty sampler whose atoms read their
    signals through [resolve]. *)
val create : Expr.resolver -> t

(** Register an interned [Atom] node: compile it against the
    sampler's resolver (idempotent per node; interned nodes are
    hash-consed, so physical identity applies).  Never raises on
    unknown signals — those raise {!Expr.Eval_error} when sampled.
    @raise Invalid_argument if the node is not an [Atom]. *)
val register : t -> Interned.t -> unit

(** [prime t ~time] samples every registered atom at instant [time]
    (idempotent per instant), newest registration first.  Each atom
    counts one query and one evaluation.  Never raises: an atom whose
    closure raises (e.g. {!Expr.Eval_error}) is left unsampled, and
    the error surfaces in the reads of that atom only, so one
    ill-typed atom cannot fail a neighbour that never reads it. *)
val prime : t -> time:int -> unit

(** [prime_valuation t ~time] is {!prime} returning the pool's
    valuation: bit [i] holds the value of the [i]-th registered atom.
    A later call at the same [time] returns the same valuation.  It is
    [-1] if an atom raised during the pass, if more than 62 atoms are
    registered, or if another sampler has since overwritten one of the
    slots — only while every slot is this pass's may a monitor compare
    the valuation against an earlier one ({!Monitor.advance}). *)
val prime_valuation : t -> time:int -> int

(** No atom raised during the last priming pass. *)
val complete : t -> bool

(** [mask t atom] is the valuation bit of a registered atom, [0] when
    the atom is unregistered or beyond bit 61. *)
val mask : t -> Interned.t -> int

(** The sampler's live query/evaluation counters, read and credited in
    place by a monitor replaying a step ({!Monitor.advance}): a replay
    counts the queries the step would have made. *)
type counters = {
  mutable queries : int;
  mutable evals : int;
}

val counters : t -> counters

(** The sampler's atom evaluator: the value of a registered atom at
    the instant last primed, counting one query, and one evaluation
    when the cached value is missing (another sampler overwrote the
    atom's slot at this instant).  One closure per sampler, built at
    {!create}.
    @raise Invalid_argument on a miss for an unregistered atom. *)
val evaluator : t -> Interned.t -> bool

(** Atom evaluations requested so far (including cache hits). *)
val queries : t -> int

(** Atom evaluations actually performed (cache misses). *)
val evals : t -> int

(** Fraction of atom queries answered from the per-instant cache. *)
val hit_rate : t -> float
