type t = {
  kernel : Kernel.t;
  name : string;
  compiled : bool;  (* engine of [kernel], latched at creation *)
  mutable static : (unit -> unit) list;  (* reversed registration order *)
  mutable dynamic : (unit -> unit) list;
  (* Compiled-engine mirror of [static]: the registration-ordered
     handler array, iterated without allocating on fire. *)
  mutable statics : (unit -> unit) array;
  mutable n_static : int;
  (* Fused view ({!fuse}): contiguous handler runs collapsed into
     activation blocks.  [n_fused < 0] means no view; any later
     [subscribe] invalidates it. *)
  mutable fstatics : (unit -> unit) array;
  mutable n_fused : int;
  mutable notifications : int;
}

let create kernel name =
  {
    kernel;
    name;
    compiled = Kernel.is_compiled kernel;
    static = [];
    dynamic = [];
    statics = Array.make 4 ignore;
    n_static = 0;
    fstatics = [||];
    n_fused = -1;
    notifications = 0;
  }

let name t = t.name
let kernel t = t.kernel

let fire t =
  t.notifications <- t.notifications + 1;
  if t.compiled then begin
    (if t.n_fused >= 0 then
       Kernel.schedule_next_delta_batch t.kernel t.fstatics t.n_fused
     else Kernel.schedule_next_delta_batch t.kernel t.statics t.n_static);
    if t.dynamic <> [] then begin
      let dynamic = List.rev t.dynamic in
      t.dynamic <- [];
      List.iter (fun f -> Kernel.schedule_next_delta t.kernel f) dynamic
    end
  end
  else begin
    let dynamic = List.rev t.dynamic in
    t.dynamic <- [];
    let static = List.rev t.static in
    List.iter (fun f -> Kernel.schedule_next_delta t.kernel f) static;
    List.iter (fun f -> Kernel.schedule_next_delta t.kernel f) dynamic
  end

let notify t = fire t

let notify_after t ~delay =
  if delay = 0 then fire t
  else Kernel.schedule_after t.kernel ~delay (fun () -> fire t)

let subscribe t f =
  (* Any new handler invalidates a fused view (it would not be part of
     the blocks); fires fall back to the per-handler arrays. *)
  t.n_fused <- -1;
  t.fstatics <- [||];
  t.static <- f :: t.static;
  if t.n_static = Array.length t.statics then begin
    let grown = Array.make (2 * t.n_static) ignore in
    Array.blit t.statics 0 grown 0 t.n_static;
    t.statics <- grown
  end;
  t.statics.(t.n_static) <- f;
  t.n_static <- t.n_static + 1;
  t.n_static - 1

let on_event t f = ignore (subscribe t f)

let fuse t spans =
  (* [spans] is a sorted, non-overlapping list of inclusive index runs
     [(first, last), block]: the fused view keeps every handler outside
     the spans in place and replaces each run with its block, so
     fire-time scheduling order is exactly the per-handler order. *)
  let out = ref [] in
  let n_out = ref 0 in
  let i = ref 0 in
  let rest = ref spans in
  while !i < t.n_static do
    (match !rest with
     | ((first, last), block) :: tail when first = !i ->
       if last < first || last >= t.n_static then
         invalid_arg "Event.fuse: span out of range";
       out := block :: !out;
       rest := tail;
       i := last + 1
     | ((first, _), _) :: _ when first < !i ->
       invalid_arg "Event.fuse: overlapping or unsorted spans"
     | _ ->
       out := t.statics.(!i) :: !out;
       incr i);
    incr n_out
  done;
  if !rest <> [] then invalid_arg "Event.fuse: span out of range";
  let fstatics = Array.make (max !n_out 1) ignore in
  List.iteri (fun j f -> fstatics.(!n_out - 1 - j) <- f) !out;
  t.fstatics <- fstatics;
  t.n_fused <- !n_out

let once t f = t.dynamic <- f :: t.dynamic
let notification_count t = t.notifications
