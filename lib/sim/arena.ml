(* Dense signal arena.

   The elaborated design's signals do not live in per-signal records:
   each typed signal claims one slot of a flat pool — parallel
   [current] and [next] arrays plus a dirty flag array marking slots
   with a scheduled update.  The pools are monomorphic ([bool], [int],
   [int64] as unboxed-element arrays), so a signal read is one array
   load and an update is a load/compare/store with no allocation and
   no polymorphic comparison.

   The dirty flags are one [bool] array element — one word — per slot,
   not a packed bitset: testing or setting a flag on every signal
   write is then a single load or store, with no shift, mask or
   read-modify-write of a word shared with neighbouring slots.

   The arena stores values and pending-update flags only; scheduling
   (which slot updates in which delta) stays with the kernel, and the
   [Signal] front-end keeps the per-signal metadata (name, change
   event, interposed transform). *)

type 'a pool = {
  mutable cur : 'a array;
  mutable nxt : 'a array;
  mutable dirty : bool array;  (* per slot: update scheduled *)
  mutable len : int;
  p_dummy : 'a;
}

type t = {
  bools : bool pool;
  ints : int pool;
  int64s : int64 pool;
}

let make_pool ?(capacity = 32) p_dummy =
  {
    cur = Array.make capacity p_dummy;
    nxt = Array.make capacity p_dummy;
    dirty = Array.make capacity false;
    len = 0;
    p_dummy;
  }

let create () =
  { bools = make_pool false; ints = make_pool 0; int64s = make_pool 0L }

let bools t = t.bools
let ints t = t.ints
let int64s t = t.int64s

let alloc pool init =
  let cap = Array.length pool.cur in
  if pool.len = cap then begin
    let grow a =
      let g = Array.make (2 * cap) pool.p_dummy in
      Array.blit a 0 g 0 cap;
      g
    in
    pool.cur <- grow pool.cur;
    pool.nxt <- grow pool.nxt;
    let bits = Array.make (2 * cap) false in
    Array.blit pool.dirty 0 bits 0 (Array.length pool.dirty);
    pool.dirty <- bits
  end;
  let slot = pool.len in
  pool.len <- pool.len + 1;
  pool.cur.(slot) <- init;
  pool.nxt.(slot) <- init;
  slot

let size pool = pool.len

let get pool slot = Array.unsafe_get pool.cur slot
let set_cur pool slot v = Array.unsafe_set pool.cur slot v
let get_next pool slot = Array.unsafe_get pool.nxt slot
let set_next pool slot v = Array.unsafe_set pool.nxt slot v

let dirty pool slot = Array.unsafe_get pool.dirty slot
let set_dirty pool slot = Array.unsafe_set pool.dirty slot true
let clear_dirty pool slot = Array.unsafe_set pool.dirty slot false
