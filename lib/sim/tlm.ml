type command =
  | Read
  | Write

type ext = ..

type payload = {
  command : command;
  address : int;
  mutable data : int64;
  mutable response_ok : bool;
  mutable extension : ext option;
}

let make_payload ?(address = 0) ?(data = 0L) ?extension command =
  { command; address; data; response_ok = true; extension }

type transaction = {
  payload : payload;
  start_time : int;
  end_time : int;
}

module Target = struct
  type t = {
    name : string;
    transport : payload -> unit;
  }

  let create _kernel ~name transport = { name; transport }
  let name t = t.name
end

module Initiator = struct
  type t = {
    kernel : Kernel.t;
    name : string;
    mutable target : Target.t option;
    mutable interposer : ((payload -> unit) -> payload -> unit) option;
    mutable observers : (transaction -> unit) list;  (* registration order *)
    mutable completed : int;
    mutable span_ns : int;  (* summed duration, while metrics are on *)
    m_starts : Tabv_obs.Metrics.counter;  (* shared per kernel *)
    m_completions : Tabv_obs.Metrics.counter;
    m_duration : Tabv_obs.Metrics.histogram;
  }

  let create kernel ~name =
    let metrics = Kernel.metrics kernel in
    let t =
      {
        kernel;
        name;
        target = None;
        interposer = None;
        observers = [];
        completed = 0;
        span_ns = 0;
        m_starts = Tabv_obs.Metrics.counter metrics "tlm.transaction_starts";
        m_completions = Tabv_obs.Metrics.counter metrics "tlm.transactions";
        m_duration = Tabv_obs.Metrics.histogram metrics "tlm.transaction_ns";
      }
    in
    (* Pull probes: always answer real values, never cost on the hot
       path (the socket keeps its own completion count anyway). *)
    Tabv_obs.Metrics.probe metrics "tlm.completed_transactions" (fun () ->
      t.completed);
    Tabv_obs.Metrics.probe metrics "tlm.span_ns_total" (fun () -> t.span_ns);
    t

  let name t = t.name

  let bind t target =
    match t.target with
    | Some _ -> invalid_arg (Printf.sprintf "Tlm.Initiator.bind: %s already bound" t.name)
    | None -> t.target <- Some target

  let b_transport t payload =
    match t.target with
    | None -> invalid_arg (Printf.sprintf "Tlm.Initiator.b_transport: %s unbound" t.name)
    | Some target ->
      Tabv_obs.Metrics.incr t.m_starts;
      let start_time = Kernel.now t.kernel in
      (* The mutator interposition hook: a fault layer wraps the
         transport call and may corrupt, drop, delay or duplicate the
         transaction without touching initiator or target logic. *)
      (match t.interposer with
      | None -> target.Target.transport payload
      | Some f -> f target.Target.transport payload);
      let end_time = Kernel.now t.kernel in
      t.completed <- t.completed + 1;
      Tabv_obs.Metrics.incr t.m_completions;
      Tabv_obs.Metrics.observe t.m_duration (end_time - start_time);
      if Tabv_obs.Metrics.enabled (Kernel.metrics t.kernel) then
        t.span_ns <- t.span_ns + (end_time - start_time);
      let transaction = { payload; start_time; end_time } in
      List.iter (fun observe -> observe transaction) t.observers

  let interpose t f =
    match t.interposer with
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Tlm.Initiator.interpose: %s already has an interposer"
           t.name)
    | None -> t.interposer <- Some f

  let clear_interpose t = t.interposer <- None
  let interposed t = t.interposer <> None
  let on_transaction t observe = t.observers <- t.observers @ [ observe ]
  let transaction_count t = t.completed
end
