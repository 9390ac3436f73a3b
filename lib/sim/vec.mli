(** Growable array queue used by the compiled engine's scheduling hot
    paths: push-only writes into a preallocated backing array, indexed
    FIFO draining, and allocation-free steady state (the array only
    grows, never shrinks).  Cleared slots are overwritten with the
    [dummy] element so drained closures are not retained. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** Random access by absolute index in [\[head t, bound t)]. *)
val get : 'a t -> int -> 'a

val head : 'a t -> int
val bound : 'a t -> int

(** Move the drain cursor past the current head element. *)
val advance_head : 'a t -> unit

(** Take the head element and advance past it (unchecked: the caller
    guards with {!is_empty}).  The vacated slot is scrubbed. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit

(** [drain t f] applies [f] to every element in FIFO order, including
    elements pushed while draining, then clears [t]. *)
val drain : 'a t -> ('a -> unit) -> unit

(** [iter t f] applies [f] to the undrained elements without consuming
    them (elements pushed during iteration are not visited). *)
val iter : 'a t -> ('a -> unit) -> unit

(** Append every undrained element of [src] onto [dst], then clear
    [src] (the vector analogue of [Queue.transfer]). *)
val transfer : src:'a t -> dst:'a t -> unit
