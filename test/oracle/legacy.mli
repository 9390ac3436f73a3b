open Tabv_psl

(** The original, non-interned tree-rewriting progression engine, kept
    as the executable specification of {!Tabv_checker.Progression}.
    The two must agree on verdicts, failure times and instance
    accounting on every trace; [test/test_interned.ml] checks this
    property-based, and the bench harness measures the speedup of the
    interned engine against it. *)

type t

exception Not_in_nnf of Ltl.t

(** @raise Not_in_nnf on formulas outside negation normal form. *)
val of_formula : Ltl.t -> t

(** [step ~time lookup ob] consumes the evaluation point at [time]. *)
val step : time:int -> (string -> Expr.value option) -> t -> t

(** [Some true] resolved true, [Some false] resolved false, [None]
    still pending. *)
val verdict : t -> bool option

(** Earliest pending timed-evaluation instant, if any. *)
val next_evaluation_time : t -> int option
