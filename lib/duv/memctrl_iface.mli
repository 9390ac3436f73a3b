open Tabv_sim

(** Common interface of the MemCtrl models — a third IP beyond the
    paper's two test cases, with {e asymmetric} latencies: writes
    acknowledge after {!write_latency} cycles, reads return data after
    {!read_latency} cycles.  Exercises the methodology on properties
    gated by operation kind.

    RTL interface: inputs [req], [we] (write enable), [addr] (8-bit),
    [wdata] (16-bit); outputs [ack], [rdata], and the early-warning
    flag [ack_next_cycle] (abstracted away at TLM-AT). *)

val write_latency : int  (** cycles, strobe to ack *)

val read_latency : int
val clock_period : int
val address_space : int

val signal_names : string list
val abstracted_signals : string list

type op =
  | Write of {
      addr : int;
      wdata : int;
    }
  | Read of { addr : int }

(** Expected read-data sequence for a workload (reference model). *)
val reference_reads : op list -> int list

type observables = {
  mutable req : bool;
  mutable we : bool;
  mutable addr : int;
  mutable wdata : int;
  mutable ack : bool;
  mutable ack_next_cycle : bool;
  mutable rdata : int;
}

val create_observables : unit -> observables

(** The mirror's ordered signal table, in {!signal_names} order: what
    checker pools resolve atoms through and the trace tap reads. *)
val signals : observables -> Duv_util.signals

(** TLM-CA cycle frame: one transaction per clock period carrying the
    full I/O bundle. *)
type frame = {
  m_req : bool;
  m_we : bool;
  m_addr : int;
  m_wdata : int;
  mutable m_ack : bool;
  mutable m_ack_next_cycle : bool;
  mutable m_rdata : int;
}

type Tlm.ext += Frame of frame

val make_frame : ?req:bool -> ?we:bool -> ?addr:int -> ?wdata:int -> unit -> frame

(** TLM-AT exchanges. *)
type at_response = {
  mutable a_ack : bool;
  mutable a_rdata : int;
}

type Tlm.ext +=
  | At_write of {
      w_addr : int;
      w_data : int;
    }
  | At_read_req of { r_addr : int }
  | At_idle  (** [req] deassertion *)
  | At_collect of at_response  (** blocking: returns at the ack instant *)
  | At_status of at_response  (** [ack] deassertion *)
