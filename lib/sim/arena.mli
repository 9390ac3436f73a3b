(** Dense signal arena: flat [current]/[next] value arrays plus a
    dirty flag array per typed pool.  Every elaborated
    [bool]/[int]/[int64] signal claims one slot; reads are single
    array loads and pending updates are per-slot flag stores, so the
    compiled engine's signal traffic allocates nothing.  The flags are
    one word per slot (not packed bits), so each test or set is a
    single load or store with no read-modify-write of a shared word.
    One arena belongs to one kernel. *)

type 'a pool
type t

val create : unit -> t

(** The three typed pools of the arena. *)
val bools : t -> bool pool

val ints : t -> int pool
val int64s : t -> int64 pool

(** [alloc pool init] claims a fresh slot holding [init] in both the
    current and next arrays, and returns its index. *)
val alloc : 'a pool -> 'a -> int

(** Slots allocated so far. *)
val size : 'a pool -> int

val get : 'a pool -> int -> 'a
val set_cur : 'a pool -> int -> 'a -> unit
val get_next : 'a pool -> int -> 'a
val set_next : 'a pool -> int -> 'a -> unit

(** Pending-update bit of a slot (the arena analogue of the heap
    signal's [update_pending] flag). *)
val dirty : 'a pool -> int -> bool

val set_dirty : 'a pool -> int -> unit
val clear_dirty : 'a pool -> int -> unit
