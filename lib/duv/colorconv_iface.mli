open Tabv_sim

(** Common interface of the ColorConv models (8-stage pipelined RGB to
    YCbCr converter).

    RTL interface: inputs [dv] (pixel valid), [r], [g], [b]; outputs
    [ovalid], [y], [cb], [cr]; internal pipeline occupancy flags
    [v1]..[v7] (one per stage boundary) are part of the RTL observable
    interface and are abstracted away at TLM-AT. *)

(** Pipeline latency in clock cycles. *)
val latency : int

val clock_period : int

(** The stage-valid flags [v1]..[v7], in stage order. *)
val valid_names : string list

val signal_names : string list

(** Names of the stage-valid signals removed by the RTL-to-TLM-AT
    abstraction. *)
val abstracted_signals : string list

type observables = {
  mutable dv : bool;
  mutable r : int;
  mutable g : int;
  mutable b : int;
  mutable ovalid : bool;
  mutable y : int;
  mutable cb : int;
  mutable cr : int;
  mutable valids : bool array;  (** v1..v7 *)
}

val create_observables : unit -> observables

(** The mirror's ordered signal table, in {!signal_names} order: what
    checker pools resolve atoms through and the trace tap reads. *)
val signals : observables -> Duv_util.signals

(** TLM-CA cycle frame. *)
type frame = {
  c_dv : bool;
  c_r : int;
  c_g : int;
  c_b : int;
  mutable c_ovalid : bool;
  mutable c_y : int;
  mutable c_cb : int;
  mutable c_cr : int;
  mutable c_valids : bool array;
}

type Tlm.ext += Frame of frame

val make_frame : ?dv:bool -> ?r:int -> ?g:int -> ?b:int -> unit -> frame

(** TLM-AT exchanges. *)
type at_response = {
  mutable a_valid : bool;
  mutable a_y : int;
  mutable a_cb : int;
  mutable a_cr : int;
}

type Tlm.ext +=
  | At_write of Colorconv.pixel
  | At_idle  (** [dv] deassertion *)
  | At_read of at_response
  | At_status of at_response  (** [ovalid] deassertion *)
