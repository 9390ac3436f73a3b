open Tabv_sim

(** ColorConv RTL model: an 8-stage pipeline, one stage per clock
    cycle, able to accept one pixel per cycle.

    {v
      edge e0   : dv sampled -> stage_in, v1 written (visible e0+1)
      edge e0+k : stage k applied, v_{k+1} written     (k = 1..6)
      edge e0+7 : stage 7 + output; ovalid/y/cb/cr visible at e0+8
    v} *)

type t

val create : Kernel.t -> Clock.t -> t

(* Inputs. *)
val dv : t -> bool Signal.t
val r : t -> int Signal.t
val g : t -> int Signal.t
val b : t -> int Signal.t

(* Outputs. *)
val ovalid : t -> bool Signal.t
val y : t -> int Signal.t
val cb : t -> int Signal.t
val cr : t -> int Signal.t

(** Stage-occupancy flag signals v1..v7. *)
val valids : t -> bool Signal.t array

(** The ordered signal table, in {!Colorconv_iface.signal_names}
    order: what checker pools resolve atoms through and the trace tap
    reads. *)
val signals : t -> Duv_util.signals
val completed : t -> int
