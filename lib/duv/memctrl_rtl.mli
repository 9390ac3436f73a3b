open Tabv_sim

(** MemCtrl RTL model: a 256 x 16-bit memory behind a req/ack
    interface.

    {v
      edge e0          : req sampled -> operation captured
      writes           : ack_next_cycle written at e0+1 (visible e0+2? no:
                         visible e0+2-1) — precisely:
                         ack_next_cycle visible at e0+1, ack at e0+2
      reads            : ack_next_cycle visible at e0+2, ack/rdata at e0+3
    v}

    While busy, further requests are ignored. *)

type t

val create : Kernel.t -> Clock.t -> t

val req : t -> bool Signal.t
val we : t -> bool Signal.t
val addr : t -> int Signal.t
val wdata : t -> int Signal.t
val ack : t -> bool Signal.t
val ack_next_cycle : t -> bool Signal.t
val rdata : t -> int Signal.t

(** The ordered signal table, in {!Memctrl_iface.signal_names}
    order: what checker pools resolve atoms through and the trace tap
    reads. *)
val signals : t -> Duv_util.signals
val completed : t -> int
