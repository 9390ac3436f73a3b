(** Exhaustive bounded-trace verification: a miniature model checker.

    Enumerates {e every} cycle-accurate trace over a small boolean
    signal alphabet up to a given depth and compares formula verdicts
    on all of them.  Complements the randomised tests: the
    transformation laws used by the methodology (push-ahead
    distributivity, NNF dualities, sugar desugarings) are checked on
    the complete space of small traces, not a sample.

    Cost is [(2^|signals|)^depth] trace evaluations per depth; keep
    [|signals| <= 3] and [depth <= 6]. *)

(** Outcome of a bounded comparison. *)
type result =
  | Holds
  | Counterexample of Trace.t

(** [equivalent ~signals ~max_depth f g] — do [f] and [g] get the same
    three-valued verdict on every trace of every length in
    [1..max_depth]?  Trace entries are at 0, 10, 20, ... ns. *)
val equivalent : signals:string list -> max_depth:int -> Ltl.t -> Ltl.t -> result

(** [implies ~signals ~max_depth f g] — on every bounded trace where
    [f] is not violated, [g] is not violated either.  This is the
    reuse-safety relation behind the Fig. 4 weakening classification:
    a checker for [g] may only fail where the original [f] would have
    failed too.  (The [True]-premise variant would be vacuous on
    finite traces, where [always] never resolves to [True].) *)
val implies : signals:string list -> max_depth:int -> Ltl.t -> Ltl.t -> result

(** [forall ~signals ~max_depth predicate] — generic driver: calls
    [predicate] on every bounded trace, stopping at the first trace
    where it is [false]. *)
val forall : signals:string list -> max_depth:int -> (Trace.t -> bool) -> result

