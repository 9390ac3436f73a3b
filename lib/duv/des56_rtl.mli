open Tabv_sim

(** DES56 RTL model: round-per-cycle datapath on the simulation
    kernel.

    A method process sensitive to the positive clock edge implements
    the controller and the Feistel datapath, one round per cycle:
    {v
      edge e0        : ds sampled high -> IP, key schedule  (load)
      edges e0+1..16 : one Feistel round each
      edge  e0+16    : writes out / rdy        (visible at e0+17)
      edge  e0+15    : writes rdy_next_cycle   (visible at e0+16)
      edge  e0+14    : writes rdy_next_next_cycle (visible at e0+15)
    v}

    Checkers and trace recorders sampling at the positive edge see
    pre-edge values, so [rdy] is observed exactly [latency] evaluation
    points after [ds] — the timing the Fig. 3 properties assert. *)

type t

(** An injectable timing bug, for ABV demonstrations and negative
    tests.  It has no equivalent among the generic saboteurs; value
    faults such as a stuck port or a zeroed result are {!Tabv_fault.Fault}
    plans passed to the testbench run functions ([Duv_fault.plan_for]). *)
type fault =
  | Rdy_one_cycle_late
      (** result and [rdy] delivered at cycle 18 instead of 17 *)

val create : ?fault:fault -> Kernel.t -> Clock.t -> t

(* Input ports (driven by the testbench). *)
val ds : t -> bool Signal.t
val decrypt : t -> bool Signal.t
val key : t -> int64 Signal.t
val indata : t -> int64 Signal.t

(* Output ports. *)
val out : t -> int64 Signal.t
val rdy : t -> bool Signal.t
val rdy_next_cycle : t -> bool Signal.t
val rdy_next_next_cycle : t -> bool Signal.t

(** The ordered signal table: each port's name and a reader of its
    current (pre-edge) value, in {!Des56_iface.signal_names} order.
    Checker pools resolve atoms through it and the trace tap reads it
    at every evaluation point. *)
val signals : t -> Duv_util.signals

(** Operations completed since creation. *)
val completed : t -> int
