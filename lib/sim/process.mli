(** Simulation processes.

    Two flavours, as in SystemC:
    {ul
    {- {e method processes}: plain callbacks re-run on each
       notification of their sensitivity events (no blocking);}
    {- {e thread processes}: coroutines implemented with OCaml 5
       effect handlers that may block with {!wait_ns} and
       {!wait_event}.}}

    Thread waits must only be used from inside a thread body; calling
    them elsewhere raises [Stdlib.Effect.Unhandled]. *)

(** Register a method process sensitive to [sensitivity].  When
    [initialize] is true (default) the body also runs once at
    elaboration (time 0, delta 0). *)
val method_process :
  Kernel.t -> name:string -> ?initialize:bool -> sensitivity:Event.t list ->
  (unit -> unit) -> unit

(** Spawn a thread process; its body starts in the first evaluation
    phase. *)
val spawn : Kernel.t -> name:string -> (unit -> unit) -> unit

(** Suspend the current thread for [delay >= 0] ns. *)
val wait_ns : Kernel.t -> int -> unit

(** Suspend the current thread until the event's next notification. *)
val wait_event : Event.t -> unit
