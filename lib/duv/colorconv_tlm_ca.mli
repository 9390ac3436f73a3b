open Tabv_sim

(** ColorConv TLM cycle-accurate model: one {!Colorconv_iface.Frame}
    transaction per clock period, observable-equivalent to
    {!Colorconv_rtl} (pixels converted in one shot at admission and
    released through an 8-slot valid shift register). *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Colorconv_iface.observables

val completed : t -> int
