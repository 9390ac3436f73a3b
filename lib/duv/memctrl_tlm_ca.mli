open Tabv_sim

(** MemCtrl TLM cycle-accurate model: one {!Memctrl_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Memctrl_rtl} (Def. III.1), so the unabstracted RTL properties
    remain checkable. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Memctrl_iface.observables

(** Property-layer view, resolved once per atom by a checker pool. *)
val resolve : t -> Tabv_psl.Expr.resolver
val completed : t -> int
val peek : t -> int -> int
