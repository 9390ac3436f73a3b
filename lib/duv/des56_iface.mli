open Tabv_sim

(** Common interface of the DES56 models.

    The RTL I/O interface (paper Fig. 2(a)): inputs [ds] (data
    strobe), [decrypt] (mode), [key], [indata]; outputs [out], [rdy]
    and the early-warning flags [rdy_next_cycle],
    [rdy_next_next_cycle].  Latency: {!latency} clock cycles from the
    edge sampling [ds] to the edge where [rdy]/[out] are visible. *)

(** Clock cycles from strobe to result (1 load + 16 rounds). *)
val latency : int

(** Reference clock period of the RTL implementation, ns. *)
val clock_period : int

(** Signal names exposed to properties. *)
val signal_names : string list

(** One operation request. *)
type op = {
  decrypt : bool;
  key : int64;
  indata : int64;
}

(** Mutable mirror of the observable interface, sampled by TLM
    checkers and trace recorders. *)
type observables = {
  mutable ds : bool;
  mutable decrypt_obs : bool;
  mutable key_obs : int64;
  mutable indata : int64;
  mutable out : int64;
  mutable rdy : bool;
  mutable rdy_next_cycle : bool;
  mutable rdy_next_next_cycle : bool;
}

val create_observables : unit -> observables

(** The mirror's ordered signal table, in {!signal_names} order:
    what checker pools resolve atoms through and the trace tap reads. *)
val signals : observables -> Duv_util.signals

(** TLM-CA cycle frame: one transaction per clock cycle carrying the
    full I/O bundle (inputs sampled, outputs returned). *)
type frame = {
  f_ds : bool;
  f_decrypt : bool;
  f_key : int64;
  f_indata : int64;
  mutable f_out : int64;
  mutable f_rdy : bool;
  mutable f_rdy_next_cycle : bool;
  mutable f_rdy_next_next_cycle : bool;
}

type Tlm.ext += Frame of frame

val make_frame : ?ds:bool -> ?decrypt:bool -> ?key:int64 -> ?indata:int64 -> unit -> frame

(** TLM-AT operation exchange: the write carries the request, the read
    collects the result. *)
type at_request = {
  a_decrypt : bool;
  a_key : int64;
  a_indata : int64;
}

type at_response = {
  mutable a_out : int64;
  mutable a_rdy : bool;
}

type Tlm.ext +=
  | At_write of at_request
  | At_idle  (** the strobe-deassertion instant (ds falls) *)
  | At_read of at_response
  | At_status of at_response  (** the rdy-deassertion instant *)
