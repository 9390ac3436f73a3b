open Tabv_sim

(** DES56 TLM loosely-timed model.

    The operation completes {e within the write transaction}: the
    result is available immediately and no simulation time passes.
    The model preserves the IP function but {e not} its timing — it is
    deliberately not timing equivalent to the RTL implementation
    (Def. III.1 fails on [rdy]/[out]).

    The methodology's guarantee (Theorem III.2) is conditioned on
    timing equivalence, so the abstracted {e timed} properties must
    fail here while purely boolean invariants still hold: checking
    them documents precisely which coding styles the reuse flow
    covers.  See `test/test_duv_models.ml` and EXPERIMENTS.md. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Des56_iface.observables

val completed : t -> int
