(** Three-valued finite-trace semantics of LTL with [next_eps^tau].

    Used as the reference oracle in tests and by the empirical
    validation of Theorems III.1 and III.2.  Verdicts follow the usual
    LTL3 convention: [True]/[False] when every infinite extension of
    the trace agrees, [Unknown] when the finite prefix is too short to
    decide.

    [next_eps^tau p] at position [i] (Def. III.3): let
    [target = time(i) + eps];
    {ul
    {- if some position [j > i] has exactly time [target], the verdict
       is that of [p] at [j];}
    {- if some position exists after [time(i)] with time beyond
       [target] but none at [target], the verdict is [False] (the
       verification environment cannot evaluate the operand at the
       required instant);}
    {- if the trace ends before [target], the verdict is [Unknown].}} *)

type verdict =
  | True
  | False
  | Unknown

val equal_verdict : verdict -> verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** Kleene negation, exposed for checker code. *)
val v_not : verdict -> verdict

(** [eval trace t] evaluates [t] at the trace's first position
    ([Unknown] on the empty trace).
    @raise Expr.Eval_error on unbound signals in atoms. *)
val eval : Trace.t -> Ltl.t -> verdict

(** [holds trace t] is true iff the verdict is not [False] — i.e. no
    violation is observable on the finite trace.  This is the
    "M |= p" notion used for dynamic ABV. *)
val holds : Trace.t -> Ltl.t -> bool

(** True iff the verdict is [False]. *)
val violated : Trace.t -> Ltl.t -> bool
