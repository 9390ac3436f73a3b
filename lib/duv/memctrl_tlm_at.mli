open Tabv_sim

(** MemCtrl TLM approximately-timed model.

    One request transaction ([At_write] / [At_read_req]) starts an
    operation; a blocking [At_collect] returns at the acknowledge
    instant (request time + 20 ns for writes, + 30 ns for reads).
    The [ack_next_cycle] early-warning flag is abstracted away. *)

type t

(** [write_latency_ns]/[read_latency_ns] default to the correct 20/30;
    other values model a wrongly abstracted TLM model. *)
val create : ?write_latency_ns:int -> ?read_latency_ns:int -> Kernel.t -> t

val target : t -> Tlm.Target.t
val observables : t -> Memctrl_iface.observables

val completed : t -> int
