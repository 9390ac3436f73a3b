open Tabv_sim

(** DES56 TLM cycle-accurate model.

    The I/O protocol is preserved: the initiator exchanges exactly one
    {!Des56_iface.Frame} transaction per clock period (10 ns), carrying
    the full input bundle and collecting the output bundle.  The frame
    first returns the pre-edge output values, then advances the
    internal state by one cycle — byte-for-byte the observable
    behaviour of {!Des56_rtl}, making the two models timing equivalent
    (Def. III.1).

    Internally the result is computed once per operation with the pure
    {!Des} functions and released after a 17-cycle countdown, which is
    what makes the CA model faster than the RTL one. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t

(** Mirror of the observable interface, updated at each frame. *)
val observables : t -> Des56_iface.observables

val completed : t -> int
