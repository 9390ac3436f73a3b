open Tabv_sim

(** DES56 TLM approximately-timed model.

    The I/O protocol is abstracted: one {e write} transaction delivers
    the operation (mode, key, data) and one {e read} transaction
    returns the result.  A read issued before the operation's
    completion instant blocks (the target waits inside [b_transport])
    until [write time + 170 ns], preserving the IP latency.

    The early-warning flags [rdy_next_cycle]/[rdy_next_next_cycle] do
    not exist at this level — they are the abstracted signals the
    Fig. 4 rules remove from the properties.

    Transactions understood (via payload extensions):
    {ul
    {- [At_write]: start an operation (the [ds] instant);}
    {- [At_idle]: no-payload notification modelling the strobe
       deassertion one clock period later (keeps the model timing
       equivalent on the preserved [ds] signal);}
    {- [At_read]: collect [out]/[rdy] (blocks until ready);}
    {- [At_status]: post-completion status poll ([rdy] low again).}} *)

type t

(** [create ?latency_ns kernel] — [latency_ns] defaults to the correct
    170 ns; passing a different value models a {e wrongly abstracted}
    TLM model, whose timed properties must then fail (Theorem III.2's
    contrapositive). *)
val create : ?latency_ns:int -> Kernel.t -> t
val target : t -> Tlm.Target.t

(** Mirror of the observable (abstracted) interface as of the last
    transaction. *)
val observables : t -> Des56_iface.observables

val completed : t -> int
