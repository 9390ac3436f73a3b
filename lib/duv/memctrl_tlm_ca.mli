open Tabv_sim

(** MemCtrl TLM cycle-accurate model: one {!Memctrl_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Memctrl_rtl} (Def. III.1), so the unabstracted RTL properties
    remain checkable. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Memctrl_iface.observables

val completed : t -> int
