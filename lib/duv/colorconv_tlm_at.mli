open Tabv_sim

(** ColorConv TLM approximately-timed model.

    One write transaction per pixel and one read per converted pixel;
    a read issued before the pixel's completion instant blocks until
    [write time + 80 ns].  Stage-valid flags v1..v7 do not exist at
    this level (the abstracted signals).  Pixels may be streamed
    back-to-back: the model keeps a FIFO of in-flight operations. *)

type t

val create : Kernel.t -> t
val target : t -> Tlm.Target.t
val observables : t -> Colorconv_iface.observables

val completed : t -> int
