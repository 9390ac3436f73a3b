open Tabv_sim

(** ColorConv TLM cycle-accurate model: one {!Colorconv_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Colorconv_rtl} (pixels converted in one shot at admission and
    released through an 8-slot valid shift register). *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Colorconv_iface.observables

(** Property-layer view, resolved once per atom by a checker pool. *)
val resolve : t -> Tabv_psl.Expr.resolver
val completed : t -> int
