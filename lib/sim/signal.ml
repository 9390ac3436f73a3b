type 'a t = {
  kernel : Kernel.t;
  name : string;
  equal : 'a -> 'a -> bool;
  mutable current : 'a;
  mutable next : 'a;
  mutable update_pending : bool;
  mutable transform : ('a -> 'a) option;  (* saboteur interposition *)
  changed : Event.t;
  mutable changes : int;
  update : unit -> unit;  (* this signal's update-phase action *)
  metrics_on : bool ref;  (* the registry's live enabled flag *)
  m_writes : Tabv_obs.Metrics.counter;  (* shared per kernel *)
  m_updates : Tabv_obs.Metrics.counter;
}

let name t = t.name
let read t = t.current

let apply_update t =
  t.update_pending <- false;
  let next =
    (* The interposition hook: a saboteur sees the driven value and
       may replace it.  [next] keeps the honest driven value so a
       disarmed saboteur restores it at the next refresh/update. *)
    match t.transform with
    | None -> t.next
    | Some f -> f t.next
  in
  if not (t.equal t.current next) then begin
    t.current <- next;
    t.changes <- t.changes + 1;
    if !(t.metrics_on) then Tabv_obs.Metrics.incr t.m_updates;
    Event.notify t.changed
  end

let make kernel ~name ~equal init =
  let metrics = Kernel.metrics kernel in
  let rec t =
    {
      kernel;
      name;
      equal;
      current = init;
      next = init;
      update_pending = false;
      transform = None;
      changed = Event.create kernel (name ^ ".changed");
      changes = 0;
      (* Allocated once here, so a write allocates nothing. *)
      update = (fun () -> apply_update t);
      metrics_on = Tabv_obs.Metrics.enabled_flag metrics;
      m_writes = Tabv_obs.Metrics.counter metrics "signal.writes";
      m_updates = Tabv_obs.Metrics.counter metrics "signal.updates";
    }
  in
  t

let create kernel ~name ?(equal = ( = )) init = make kernel ~name ~equal init
let create_bool kernel ~name init = make kernel ~name ~equal:Bool.equal init
let create_int kernel ~name init = make kernel ~name ~equal:Int.equal init
let create_int64 kernel ~name init = make kernel ~name ~equal:Int64.equal init

let schedule_update t =
  if not t.update_pending then begin
    t.update_pending <- true;
    Kernel.request_update t.kernel t.update
  end

let write t v =
  t.next <- v;
  if !(t.metrics_on) then Tabv_obs.Metrics.incr t.m_writes;
  schedule_update t

let interpose t f =
  match t.transform with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Signal.interpose: %s already has an interposer" t.name)
  | None -> t.transform <- Some f

let clear_interpose t = t.transform <- None
let interposed t = t.transform <> None

let refresh t = schedule_update t

let changed t = t.changed
let change_count t = t.changes
