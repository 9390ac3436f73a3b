type t = {
  kernel : Kernel.t;
  name : string;
  (* Static handlers in registration order; [n_static] is the live
     prefix, so a fire schedules them without allocating. *)
  mutable statics : (unit -> unit) array;
  mutable n_static : int;
  mutable dynamic : (unit -> unit) list;  (* reversed registration order *)
  mutable notifications : int;
}

let create kernel name =
  {
    kernel;
    name;
    statics = Array.make 4 ignore;
    n_static = 0;
    dynamic = [];
    notifications = 0;
  }

let name t = t.name
let kernel t = t.kernel

let notify t =
  t.notifications <- t.notifications + 1;
  Kernel.schedule_next_delta_batch t.kernel t.statics t.n_static;
  match t.dynamic with
  | [] -> ()
  | dynamic ->
    t.dynamic <- [];
    List.iter (fun f -> Kernel.schedule_next_delta t.kernel f) (List.rev dynamic)

let on_event t f =
  if t.n_static = Array.length t.statics then begin
    let grown = Array.make (2 * t.n_static) ignore in
    Array.blit t.statics 0 grown 0 t.n_static;
    t.statics <- grown
  end;
  t.statics.(t.n_static) <- f;
  t.n_static <- t.n_static + 1

let once t f = t.dynamic <- f :: t.dynamic
let notification_count t = t.notifications
