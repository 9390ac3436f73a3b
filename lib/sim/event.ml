type t = {
  kernel : Kernel.t;
  name : string;
  (* Static handlers and one-shot waiters, each in registration order
     with its live prefix: a fire schedules both prefixes without
     allocating, then clears the waiters. *)
  mutable statics : (unit -> unit) array;
  mutable n_static : int;
  mutable waiters : (unit -> unit) array;
  mutable n_waiting : int;
  mutable notifications : int;
}

let create kernel name =
  {
    kernel;
    name;
    statics = Array.make 4 ignore;
    n_static = 0;
    waiters = [||];
    n_waiting = 0;
    notifications = 0;
  }

let name t = t.name

let notify t =
  t.notifications <- t.notifications + 1;
  Kernel.schedule_next_delta_batch t.kernel t.statics t.n_static;
  let n = t.n_waiting in
  if n > 0 then begin
    Kernel.schedule_next_delta_batch t.kernel t.waiters n;
    Array.fill t.waiters 0 n ignore;
    t.n_waiting <- 0
  end

(* A full array, twice as long. *)
let grow a =
  let grown = Array.make (max 4 (2 * Array.length a)) ignore in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let on_event t f =
  if t.n_static = Array.length t.statics then t.statics <- grow t.statics;
  t.statics.(t.n_static) <- f;
  t.n_static <- t.n_static + 1

let once t f =
  if t.n_waiting = Array.length t.waiters then t.waiters <- grow t.waiters;
  t.waiters.(t.n_waiting) <- f;
  t.n_waiting <- t.n_waiting + 1

let notification_count t = t.notifications
