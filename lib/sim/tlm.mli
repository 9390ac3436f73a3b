(** Transaction-level modelling primitives (TLM-2.0-style generic
    payload and blocking transport).

    An initiator socket is bound to one target socket; a blocking
    transport call runs the target's callback (which may consume
    simulation time via {!Process.wait_ns} when invoked from a thread
    process).  The socket records every completed transaction and
    notifies observers with begin/end timestamps — this is the hook the
    TLM checker wrapper uses to define transaction evaluation points
    (Sec. IV of the paper). *)

type command =
  | Read
  | Write

(** Open extension type: models TLM-2.0 generic-payload extensions.
    DUV models declare their own constructors to carry structured I/O
    bundles through a transaction. *)
type ext = ..

type payload = {
  command : command;
  address : int;
  mutable data : int64;
  mutable response_ok : bool;
  mutable extension : ext option;
}

val make_payload : ?address:int -> ?data:int64 -> ?extension:ext -> command -> payload

(** End-of-transaction observation. *)
type transaction = {
  payload : payload;
  start_time : int;  (** ns, call instant *)
  end_time : int;  (** ns, return instant *)
}

module Target : sig
  type t

  (** [create kernel ~name transport] — [transport] implements the
      target behaviour for one payload. *)
  val create : Kernel.t -> name:string -> (payload -> unit) -> t

  val name : t -> string
end

module Initiator : sig
  type t

  val create : Kernel.t -> name:string -> t
  val name : t -> string

  (** @raise Invalid_argument when already bound. *)
  val bind : t -> Target.t -> unit

  (** Blocking transport.  Runs the target callback; the transaction
      end event fires at the instant the callback returns.
      @raise Invalid_argument when unbound. *)
  val b_transport : t -> payload -> unit

  (** [interpose t f] installs a transaction mutator: every
      {!b_transport} call becomes [f underlying payload] where
      [underlying] is the bound target's transport.  A mutator may
      corrupt the payload, skip the call (dropped response), call it
      twice (duplicate), or consume extra simulation time first —
      without touching initiator or target logic.  Observers and
      timing still see the transaction as one completed call.
      @raise Invalid_argument if one is already installed. *)
  val interpose : t -> ((payload -> unit) -> payload -> unit) -> unit

  val clear_interpose : t -> unit
  val interposed : t -> bool

  (** Subscribe to completed transactions, in completion order. *)
  val on_transaction : t -> (transaction -> unit) -> unit

  (** Transactions completed so far. *)
  val transaction_count : t -> int
end
