(* Growable array queue for the compiled engine's hot paths.

   The dynamic kernel queues closures through [Queue.t] (one heap cell
   per element) and [list] accumulators (one cons per request plus a
   [List.rev] per phase).  The compiled engine replaces both with this
   vector: pushes write into a preallocated array, draining walks an
   index, and [clear] resets the cursor — steady-state operation
   allocates nothing.

   Hot-path accesses use [Array.unsafe_*]: the invariants
   [0 <= head <= len <= Array.length data] are maintained by every
   operation here, and the callers (the kernel loops) never index
   directly.  Elements are overwritten with [dummy] in bulk on
   [clear]/[drain] — not per pop — so drained closures do not leak
   through the backing store without paying a store per element. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;  (* next element to drain *)
  mutable len : int;  (* next free slot *)
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; head = 0; len = 0; dummy }

let is_empty t = t.len = t.head

let grow t =
  let grown = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 grown 0 t.len;
  t.data <- grown

let push t x =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i = t.data.(i)
let head t = t.head
let bound t = t.len
let advance_head t = t.head <- t.head + 1

let pop t =
  let x = Array.unsafe_get t.data t.head in
  t.head <- t.head + 1;
  x

let clear t =
  if t.len > 0 then Array.fill t.data 0 t.len t.dummy;
  t.head <- 0;
  t.len <- 0

(* FIFO drain honouring elements pushed *during* the drain (the
   dynamic queues have the same property: an action scheduled from
   inside the evaluation phase runs in the same phase). *)
let drain t f =
  while t.head < t.len do
    let x = Array.unsafe_get t.data t.head in
    t.head <- t.head + 1;
    f x
  done;
  clear t

let iter t f =
  for i = t.head to t.len - 1 do
    f t.data.(i)
  done

let transfer ~src ~dst =
  let n = src.len - src.head in
  if n > 0 then begin
    while dst.len + n > Array.length dst.data do
      grow dst
    done;
    Array.blit src.data src.head dst.data dst.len n;
    dst.len <- dst.len + n
  end;
  clear src
