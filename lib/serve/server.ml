(* The tabv-serve daemon: a persistent, concurrent verification
   service over versioned {!Tabv_core.Frame} frames.

   One single-threaded coordinator (this module's select loop) owns
   every socket, the bounded fair scheduler, the warm result cache and
   the request bookkeeping; verification work itself runs in worker
   slots, each with a warm worker — a domain of this process, or a
   crash-isolated [_worker] subprocess running {!Handler.op}.  The
   coordinator never blocks on work or on a slow client: reads are
   non-blocking through incremental frame streams, writes go through
   per-connection backlogs drained when the socket is writable.

   Life of a request:
   {ol
   {- decode; warm-cacheable requests consult the {!Warm} cache — a
      hit answers immediately with the cached bytes ([warm:true]);}
   {- admission: a job reusing the (connection, id) key of one still
      queued or running is a protocol error; journaled campaigns
      reserve their journal path here — queued or running, one owner
      per path at a time (two writers on one journal would corrupt
      it), so a clashing request is refused; a full queue answers
      [rejected] with retry advice;}
   {- [accepted] with the queue position, then fair round-robin
      scheduling across client connections ({!Sched});}
   {- [started] when a worker picks it up; client disconnect sets the
      request's interrupt flag (in-domain) or SIGKILLs the worker
      (subprocess) and discards the result;}
   {- [result] carries the exact one-shot CLI report bytes (see
      {!Handler}); completed cacheable results warm the cache.}}

   Shutdown (a [shutdown] request, or the caller's [interrupted]
   turning true — the CLI wires SIGINT/SIGTERM to it) drains
   gracefully: listeners close, accepted requests finish, then the
   loop exits and every worker is torn down. *)

module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame
module Metrics = Tabv_obs.Metrics
module Journal = Tabv_campaign.Journal
module Executor = Tabv_campaign.Executor

type executor =
  | In_domain_workers
  | Subprocess_workers

type config = {
  socket : string;  (* Unix-domain socket path *)
  tcp : (string * int) option;  (* optional extra TCP listener *)
  workers : int;
  executor : executor;
  queue_bound : int;
  retry_after_ms : int;  (* base advice in rejected events *)
  warm_bound : int;
  job_timeout_s : float option;  (* per-request deadline; None = no deadline *)
  conn_idle_timeout_s : float;  (* max silence mid-frame before disconnect *)
  breaker_threshold : int;  (* consecutive worker failures before quarantine *)
  breaker_cooldown_s : float;  (* quarantine length before a half-open probe *)
  shed_watermark : int option;  (* queue depth where low-priority shedding
                                   starts; None = 3/4 of the bound *)
  state_dir : string option;  (* journals for journaled campaigns *)
  obs : Metrics.t option;  (* server observability registry *)
}

(* Outgoing bytes buffered per connection before the client is
   dropped, and the largest request frame body a client may announce. *)
let backlog_bound = 64 * 1024 * 1024
let frame_bound = 64 * 1024 * 1024

(* Journals older than a week have no recovery value; startup collects
   them. *)
let journal_gc_age_s = 7. *. 24. *. 3600.

let default_config ~socket () =
  {
    socket;
    tcp = None;
    workers = 2;
    executor = In_domain_workers;
    queue_bound = 64;
    retry_after_ms = 250;
    warm_bound = 32;
    job_timeout_s = Some 300.;
    conn_idle_timeout_s = 60.;
    breaker_threshold = 3;
    breaker_cooldown_s = 5.;
    shed_watermark = None;
    state_dir = None;
    obs = None;
  }

(* --- bookkeeping types --------------------------------------------- *)

type key = {
  k_conn : int;
  k_req : int;  (* the client-chosen request id *)
}

type queued = {
  q_key : key;
  q_job : Protocol.job;
  q_fingerprint : string;
  q_cacheable : bool;
  q_journal_path : string option;
}

type running = {
  r_queued : queued;
  r_interrupted : bool Atomic.t;
  r_started_at : float;
  mutable r_cancelled : bool;  (* client gone: discard the result *)
  mutable r_deadlined : bool;  (* watchdog already answered and released *)
}

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_stream : Frame.stream;
  c_out : string Queue.t;  (* pending outgoing frames, oldest first *)
  mutable c_out_off : int;  (* bytes of the head frame already written *)
  mutable c_out_len : int;  (* total unwritten bytes across the queue *)
  mutable c_overflow : bool;  (* backlog over bound: disconnect pending *)
  mutable c_dead : bool;
  mutable c_frame_deadline : float option;
      (* set while a partial frame sits in [c_stream]: a peer that goes
         silent mid-frame holds a reservation-free connection hostage
         forever unless it is timed out *)
}

(* A worker, and the descriptor its replies arrive on: EOF there means
   it died.  An in-domain worker is a domain of this process holding
   the other end of a socket pair; its jobs and their outcomes pass as
   OCaml values through [job] and [outcome], announced by one byte
   each way. *)
type worker = {
  w_fd : Unix.file_descr;
  w_kind : worker_kind;
}

and worker_kind =
  | Domain_worker of {
      domain : unit Domain.t;
      job : running option Atomic.t;
      outcome : (Handler.outcome, string) result option Atomic.t;
    }
  | Process_worker of Executor.process

(* One worker slot: its circuit breaker (consecutive infrastructure
   failures quarantine the slot), the request it runs, and its worker,
   started by the slot's first job and again after a worker is lost. *)
type slot = {
  breaker : Sched.Breaker.t;
  mutable job : running option;
  mutable worker : worker option;
}

type t = {
  config : config;
  obs : Metrics.t;
  warm : Warm.t;
  sched : queued Sched.t;
  conns : (int, conn) Hashtbl.t;
  (* Admission-time reservations, queued or running: journal paths
     with exactly one owner each, and every live (conn, id) key. *)
  active_journals : (string, unit) Hashtbl.t;
  inflight : (key, unit) Hashtbl.t;
  mutable next_conn : int;
  mutable draining : bool;
  mutable listeners : Unix.file_descr list;
  slots : slot array;
  (* instruments *)
  m_requests : Metrics.counter;
  m_rejected : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_failed : Metrics.counter;
  m_served : Metrics.counter;
  m_deadlined : Metrics.counter;
  m_conn_timeouts : Metrics.counter;
  m_latency : Metrics.histogram;
}

(* --- small IO helpers ---------------------------------------------- *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Append [payload] as one versioned frame to the connection's
   backlog; the select loop drains it when the socket is writable.
   A backlog over the bound marks the connection for disconnect (the
   main loop sweeps it) instead of buffering without limit for a
   client that never reads. *)
let send_frame conn payload =
  if not conn.c_dead && not conn.c_overflow then begin
    let frame = Frame.encode ~version:Protocol.frame_version payload in
    Queue.add frame conn.c_out;
    conn.c_out_len <- conn.c_out_len + String.length frame;
    if conn.c_out_len > backlog_bound then conn.c_overflow <- true
  end

(* Best-effort synchronous flush of the backlog (teardown, protocol
   failures): stops at the first short write or error. *)
let flush_backlog conn =
  try
    let first = ref true in
    Queue.iter
      (fun frame ->
        let off = if !first then conn.c_out_off else 0 in
        first := false;
        write_all conn.c_fd frame off (String.length frame - off))
      conn.c_out
  with Unix.Unix_error _ -> ()

let send_event conn ~id event =
  send_frame conn (J.to_string (Protocol.event_json ~id event))

(* --- worker slots -------------------------------------------------- *)

(* An in-domain worker's loop on its end of the socket pair: one byte
   in per job, one byte out once [outcome] holds the job's result.
   EOF ends the loop (teardown); leaving it closes this end, which the
   coordinator reads as the worker's death. *)
let domain_loop ~state_dir fd job outcome =
  let byte = Bytes.create 1 in
  let rec serve () =
    match Unix.read fd byte 0 1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve ()
    | 0 | (exception Unix.Unix_error _) -> ()
    | _ ->
      let r = Option.get (Atomic.get job) in
      let result =
        match Handler.in_domain_refusal r.r_queued.q_job with
        | Some refusal -> Error refusal
        | None ->
          (match
             Handler.execute
               ~interrupted:(fun () -> Atomic.get r.r_interrupted)
               ~state_dir r.r_queued.q_job
           with
           | result -> result
           | exception e -> Error (Printexc.to_string e))
      in
      Atomic.set outcome (Some result);
      (* A failed write means the coordinator has closed its end. *)
      (match Unix.write_substring fd "x" 0 1 with
       | _ -> serve ()
       | exception Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally:(fun () -> close_noerr fd) serve

(* Start [running] on [slot], starting the slot's worker first if it
   has none — the one place the daemon's executor kind is read. *)
let start config slot running =
  let worker =
    match slot.worker with
    | Some worker -> worker
    | None ->
      let worker =
        match config.executor with
        | In_domain_workers ->
          let ours, theirs =
            Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
          in
          Unix.set_nonblock ours;
          let job = Atomic.make None and outcome = Atomic.make None in
          let domain =
            try
              Domain.spawn (fun () ->
                  domain_loop ~state_dir:config.state_dir theirs job outcome)
            with e ->
              close_noerr ours;
              close_noerr theirs;
              raise e
          in
          { w_fd = ours; w_kind = Domain_worker { domain; job; outcome } }
        | Subprocess_workers ->
          let p = Executor.spawn () in
          { w_fd = Executor.reply_fd p; w_kind = Process_worker p }
      in
      slot.worker <- Some worker;
      worker
  in
  slot.job <- Some running;
  match worker.w_kind with
  | Domain_worker d ->
    Atomic.set d.job (Some running);
    (* A dead domain fails the write; its EOF reports the death. *)
    (try ignore (Unix.write_substring worker.w_fd "x" 0 1)
     with Unix.Unix_error _ -> ())
  | Process_worker p ->
    Executor.send p Handler.op ~attempt:1
      { Handler.state_dir = config.state_dir; job = running.r_queued.q_job }

(* Stop the job on [slot], if any — the one rule besides {!start} that
   depends on the kind of worker; [true] when the slot is free at
   once.  A worker process is SIGKILLed, and the slot's next job starts
   a new one.  An in-domain job can only be asked to stop (its
   interrupt flag) and keeps the slot until its result comes back;
   [~retire] (teardown) also ends the domain, once that result is in. *)
let stop slot ~retire =
  Option.iter (fun r -> Atomic.set r.r_interrupted true) slot.job;
  (match slot.worker with
   | Some { w_kind = Process_worker p; _ } ->
     ignore (Executor.kill p);
     slot.worker <- None;
     slot.job <- None
   | Some { w_fd; w_kind = Domain_worker d } when retire ->
     close_noerr w_fd;
     Domain.join d.domain;
     slot.worker <- None
   | Some { w_kind = Domain_worker _; _ } | None -> ());
  slot.job = None

(* [worker]'s descriptor turned readable: [Some (sound, result)] once
   it has answered or died, [None] while a reply frame is incomplete.
   A clean [{"error":..}] reply is the job's own failure and leaves the
   worker sound; a garbled reply or a dead worker does not, and the
   slot loses its worker. *)
let read_reply slot worker =
  match worker.w_kind with
  | Domain_worker d ->
    (match Unix.read worker.w_fd (Bytes.create 1) 0 1 with
     | exception
         Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
       ->
       None
     | 1 -> Some (true, Option.get (Atomic.get d.outcome))
     | _ | (exception Unix.Unix_error _) ->
       close_noerr worker.w_fd;
       Domain.join d.domain;
       slot.worker <- None;
       Some (false, Error "crashed: worker domain exited"))
  | Process_worker p ->
    (match Executor.read_reply p Handler.op with
     | None -> None
     | Some (Executor.Replied outcome) -> Some (true, Ok outcome)
     | Some (Executor.Refused message) -> Some (true, Error message)
     | Some (Executor.Lost failure) ->
       slot.worker <- None;
       Some (false, Error (Executor.failure_to_string failure)))

(* --- server construction ------------------------------------------- *)

let listen_unix path =
  (* A leftover socket file makes bind fail, but the file may belong
     to a live daemon just as well as a dead one — probe it with a
     connect before unlinking: a dead daemon's file refuses the
     connection, a live listener accepts (and must not be silently
     unseated by a second `tabv serve` on the same path). *)
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } ->
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let verdict =
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () -> `Live
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
         -> `Dead
       | exception Unix.Unix_error _ -> `Unknown  (* let bind decide *)
     in
     close_noerr probe;
     (match verdict with
      | `Live ->
        failwith
          (Printf.sprintf "a daemon is already listening on %s" path)
      | `Dead -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Unknown -> ())
   | _ -> ()
   | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     close_noerr fd;
     failwith
       (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)));
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let addr =
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      (* Not resolvable: accept a literal IP, otherwise a clean error
         (inet_addr_of_string's bare [Failure] names no host). *)
      (try Unix.inet_addr_of_string host
       with Failure _ ->
         failwith (Printf.sprintf "cannot resolve host %s" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (addr, port))
   with Unix.Unix_error (e, _, _) ->
     close_noerr fd;
     failwith
       (Printf.sprintf "cannot bind %s:%d: %s" host port
          (Unix.error_message e)));
  Unix.listen fd 64;
  fd

let create (config : config) =
  let obs =
    match config.obs with
    | Some m -> m
    | None -> Metrics.create ~enabled:true ()
  in
  let warm = Warm.create ~bound:config.warm_bound in
  let sched =
    Sched.create ?watermark:config.shed_watermark ~bound:config.queue_bound ()
  in
  let conns = Hashtbl.create 16 in
  let slots =
    Array.init config.workers (fun _ ->
        {
          breaker =
            Sched.Breaker.create ~threshold:config.breaker_threshold
              ~cooldown_s:config.breaker_cooldown_s ();
          job = None;
          worker = None;
        })
  in
  let inflight = Hashtbl.create 16 in
  let active_journals = Hashtbl.create 8 in
  Metrics.probe obs "serve.queue_depth" (fun () -> Sched.depth sched);
  Metrics.probe obs "serve.connections_active" (fun () -> Hashtbl.length conns);
  Metrics.probe obs "serve.warm_entries" (fun () -> Warm.size warm);
  Metrics.probe obs "serve.warm_hits" (fun () -> Warm.hits warm);
  Metrics.probe obs "serve.warm_misses" (fun () -> Warm.misses warm);
  Metrics.probe obs "serve.warm_evictions" (fun () -> Warm.evictions warm);
  (* Leak detectors: both must read 0 once the daemon has drained. *)
  Metrics.probe obs "serve.inflight_keys" (fun () -> Hashtbl.length inflight);
  Metrics.probe obs "serve.active_journals" (fun () ->
      Hashtbl.length active_journals);
  Metrics.probe obs "serve.jobs_shed" (fun () -> Sched.shed_count sched);
  Metrics.probe obs "serve.breaker_trips" (fun () ->
      Array.fold_left (fun acc s -> acc + Sched.Breaker.trips s.breaker) 0 slots);
  Metrics.probe obs "serve.breaker_open" (fun () ->
      Array.fold_left
        (fun acc s -> acc + if Sched.Breaker.is_open s.breaker then 1 else 0)
        0 slots);
  (* Stale-journal GC: journals of long-dead campaigns have no
     recovery value and would accumulate forever. *)
  (match config.state_dir with
   | Some dir ->
     ignore (Journal.gc_stale ~dir ~max_age_s:journal_gc_age_s ())
   | None -> ());
  {
    config;
    obs;
    warm;
    sched;
    conns;
    active_journals;
    inflight;
    next_conn = 0;
    draining = false;
    listeners = [];
    slots;
    m_requests = Metrics.counter obs "serve.requests_total";
    m_rejected = Metrics.counter obs "serve.requests_rejected";
    m_cancelled = Metrics.counter obs "serve.requests_cancelled";
    m_failed = Metrics.counter obs "serve.requests_failed";
    m_served = Metrics.counter obs "serve.requests_served";
    m_deadlined = Metrics.counter obs "serve.jobs_deadlined";
    m_conn_timeouts = Metrics.counter obs "serve.connections_timed_out";
    m_latency = Metrics.histogram obs "serve.request_latency_ms";
  }

(* --- dispatch ------------------------------------------------------ *)

(* Admission-time reservations ({!t.inflight}, {!t.active_journals})
   are taken when a request is accepted into the queue and released
   exactly once, when it leaves the system: completion, cancellation,
   or being dropped from the queue with its client.  Reserving at
   admission — not at dispatch — is what makes the one-writer-per-
   journal guarantee hold for *queued* requests too: two clashing
   campaigns queued behind busy workers must not both start. *)
let reserve_request t (queued : queued) =
  Hashtbl.replace t.inflight queued.q_key ();
  match queued.q_journal_path with
  | None -> ()
  | Some path -> Hashtbl.replace t.active_journals path ()

let release_request t (queued : queued) =
  Hashtbl.remove t.inflight queued.q_key;
  match queued.q_journal_path with
  | None -> ()
  | Some path -> Hashtbl.remove t.active_journals path

(* Honest backpressure advice: the configured base scaled by how deep
   the queue actually is, so clients retrying a loaded daemon back off
   harder than clients retrying a momentary blip (1x empty .. 5x at
   the bound). *)
let retry_advice_ms t =
  t.config.retry_after_ms
  * (1 + 4 * Sched.depth t.sched / max 1 t.config.queue_bound)

(* Hand queued requests to idle, non-quarantined slots, telling their
   clients.  A slot whose breaker is open is skipped; an expired
   quarantine admits exactly one half-open probe job. *)
let try_dispatch t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun slot ->
      if slot.job = None && Sched.Breaker.available slot.breaker ~now then
        match Sched.next t.sched with
        | None -> ()
        | Some (_client, queued) ->
          (match Hashtbl.find_opt t.conns queued.q_key.k_conn with
           | Some conn -> send_event conn ~id:queued.q_key.k_req Protocol.Started
           | None -> ());
          Sched.Breaker.probe_started slot.breaker;
          start t.config slot
            {
              r_queued = queued;
              r_interrupted = Atomic.make false;
              r_started_at = Unix.gettimeofday ();
              r_cancelled = false;
              r_deadlined = false;
            })
    t.slots

(* --- request admission --------------------------------------------- *)

let handle_request t conn ~id request =
  match request with
  | Protocol.Control Protocol.Ping -> send_event conn ~id Protocol.Pong
  | Protocol.Control Protocol.Stats ->
    send_event conn ~id
      (Protocol.Stats_reply
         (J.Assoc
            [ ( "metrics",
                Tabv_core.Report_json.metrics_snapshot_json
                  (Metrics.snapshot t.obs) ) ]))
  | Protocol.Control Protocol.Invalidate ->
    send_event conn ~id (Protocol.Invalidated { entries = Warm.clear t.warm })
  | Protocol.Control Protocol.Shutdown ->
    send_event conn ~id Protocol.Shutting_down;
    t.draining <- true
  | Protocol.Job job ->
    Metrics.incr t.m_requests;
    let fingerprint = Handler.fingerprint job in
    let cacheable = Handler.cacheable job in
    let warm_hit =
      if cacheable then Warm.find t.warm fingerprint else None
    in
    (match warm_hit with
     | Some entry ->
       Metrics.incr t.m_served;
       send_event conn ~id
         (Protocol.Result
            { ok = entry.Warm.ok; warm = true; report = entry.Warm.report })
     | None ->
       let key = { k_conn = conn.c_id; k_req = id } in
       if Hashtbl.mem t.inflight key then begin
         (* Reusing a live id would cross-wire event delivery and the
            worker bookkeeping keyed on (conn, id). *)
         Metrics.incr t.m_failed;
         send_event conn ~id
           (Protocol.Error
              {
                message =
                  Printf.sprintf
                    "request id %d is already queued or running on this \
                     connection"
                    id;
              })
       end
       else begin
         let journal_path =
           match t.config.state_dir with
           | Some state_dir -> Handler.campaign_journal_path ~state_dir job
           | None -> None
         in
         let journal_clash =
           match journal_path with
           | Some path -> Hashtbl.mem t.active_journals path
           | None -> false
         in
         if journal_clash then begin
           Metrics.incr t.m_rejected;
           send_event conn ~id
             (Protocol.Rejected { retry_after_ms = retry_advice_ms t })
         end
         else begin
           let queued =
             {
               q_key = key;
               q_job = job;
               q_fingerprint = fingerprint;
               q_cacheable = cacheable;
               q_journal_path = journal_path;
             }
           in
           match
             Sched.submit t.sched
               ~priority:(Protocol.job_priority job)
               ~client:conn.c_id queued
           with
           | `Rejected ->
             Metrics.incr t.m_rejected;
             send_event conn ~id
               (Protocol.Rejected { retry_after_ms = retry_advice_ms t })
           | `Displaced (_victim_client, victim, position) ->
             (* The full queue admitted this job by shedding a queued
                lower-priority one: the victim's owner gets an honest
                late [rejected] (its [accepted] was real at the time —
                a retrying client resubmits on either event). *)
             release_request t victim;
             Metrics.incr t.m_rejected;
             (match Hashtbl.find_opt t.conns victim.q_key.k_conn with
              | Some vconn ->
                send_event vconn ~id:victim.q_key.k_req
                  (Protocol.Rejected { retry_after_ms = retry_advice_ms t })
              | None -> ());
             reserve_request t queued;
             send_event conn ~id (Protocol.Accepted { position });
             try_dispatch t
           | `Accepted position ->
             reserve_request t queued;
             send_event conn ~id (Protocol.Accepted { position });
             try_dispatch t
         end
       end)

(* --- result completion --------------------------------------------- *)

let finish_live t running result =
  release_request t running.r_queued;
  let key = running.r_queued.q_key in
  let elapsed_ms =
    int_of_float ((Unix.gettimeofday () -. running.r_started_at) *. 1000.)
  in
  Metrics.observe t.m_latency (max 1 elapsed_ms);
  if running.r_cancelled then Metrics.incr t.m_cancelled
  else begin
    (match result with
     | Ok outcome ->
       Metrics.incr t.m_served;
       if running.r_queued.q_cacheable then
         Warm.add t.warm running.r_queued.q_fingerprint
           { Warm.ok = outcome.Handler.green; report = outcome.Handler.report };
       (match Hashtbl.find_opt t.conns key.k_conn with
        | Some conn ->
          send_event conn ~id:key.k_req
            (Protocol.Result
               {
                 ok = outcome.Handler.green;
                 warm = false;
                 report = outcome.Handler.report;
               })
        | None -> ())
     | Error message ->
       Metrics.incr t.m_failed;
       (match Hashtbl.find_opt t.conns key.k_conn with
        | Some conn ->
          send_event conn ~id:key.k_req (Protocol.Error { message })
        | None -> ()))
  end

let finish t running result =
  if running.r_deadlined then
    (* The deadline watchdog already answered the client and released
       the reservations; the late result (an in-domain job finally
       hitting an interruption point) is dropped on the floor. *)
    ()
  else finish_live t running result

(* A busy slot's descriptor turned readable: once its worker has
   answered or died, count that against the slot's breaker, settle the
   request and refill the slot. *)
let service_slot t slot =
  match (slot.worker, slot.job) with
  | Some worker, Some running ->
    (match read_reply slot worker with
     | None -> ()
     | Some (sound, result) ->
       if sound then Sched.Breaker.record_success slot.breaker
       else
         Sched.Breaker.record_failure slot.breaker ~now:(Unix.gettimeofday ());
       slot.job <- None;
       finish t running result;
       try_dispatch t)
  | _ -> ()

(* --- connection lifecycle ------------------------------------------ *)

let accept_conn t listener =
  match Unix.accept ~cloexec:true listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _addr ->
    Unix.set_nonblock fd;
    let conn =
      {
        c_id = t.next_conn;
        c_fd = fd;
        c_stream =
          Frame.stream ~expect_version:Protocol.frame_version
            ~max_frame:frame_bound ();
        c_out = Queue.create ();
        c_out_off = 0;
        c_out_len = 0;
        c_overflow = false;
        c_dead = false;
        c_frame_deadline = None;
      }
    in
    t.next_conn <- t.next_conn + 1;
    Hashtbl.replace t.conns conn.c_id conn;
    Sched.add_client t.sched conn.c_id;
    send_frame conn (J.to_string Protocol.hello_json)

let disconnect t conn =
 if not conn.c_dead then begin
  conn.c_dead <- true;
  Hashtbl.remove t.conns conn.c_id;
  let dropped = Sched.remove_client t.sched conn.c_id in
  List.iter
    (fun q ->
      Metrics.incr t.m_cancelled;
      release_request t q)
    dropped;
  (* Cancel this client's running jobs; their results are discarded.
     A slot whose worker was killed settles its request now, an
     in-domain job when its result comes back. *)
  Array.iter
    (fun slot ->
      match slot.job with
      | Some running when running.r_queued.q_key.k_conn = conn.c_id ->
        running.r_cancelled <- true;
        if stop slot ~retire:false then
          finish t running (Error "cancelled: client disconnected")
      | _ -> ())
    t.slots;
  close_noerr conn.c_fd;
  try_dispatch t
 end

let service_conn_read t conn =
  let buf = Bytes.create 65536 in
  let closed =
    match Unix.read conn.c_fd buf 0 65536 with
    | 0 -> true
    | n ->
      Frame.feed conn.c_stream (Bytes.sub_string buf 0 n);
      false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      false
    | exception Unix.Unix_error _ -> true
  in
  let protocol_failure message =
    send_event conn ~id:(-1) (Protocol.Error { message });
    (* Flush best-effort, then drop the connection: after a framing
       error the byte stream has no recoverable structure. *)
    flush_backlog conn;
    Queue.clear conn.c_out;
    conn.c_out_off <- 0;
    conn.c_out_len <- 0;
    disconnect t conn
  in
  let rec pump () =
    if not conn.c_dead then
      match Frame.pop conn.c_stream with
      | exception Frame.Protocol_error message -> protocol_failure message
      | None -> ()
      | Some payload ->
        (match J.of_string payload with
         | exception J.Parse_error { line; col; message } ->
           protocol_failure
             (Printf.sprintf "unparsable request: %d:%d: %s" line col message)
         | json ->
           (match Protocol.request_of_json json with
            | Error message -> send_event conn ~id:(-1) (Protocol.Error { message })
            | Ok (id, request) -> handle_request t conn ~id request);
           pump ())
  in
  pump ();
  if closed && not conn.c_dead then disconnect t conn
  else if not conn.c_dead then begin
    (* Arm the mid-frame watchdog while a partial frame is buffered:
       a peer that goes silent halfway through a request (slow-loris,
       crash mid-write) must not hold the connection open forever.
       A complete quiet connection (empty buffer) may idle freely. *)
    if Frame.stream_length conn.c_stream > 0 then begin
      if conn.c_frame_deadline = None then
        conn.c_frame_deadline <-
          Some (Unix.gettimeofday () +. t.config.conn_idle_timeout_s)
    end
    else conn.c_frame_deadline <- None
  end

(* Drain the backlog frame by frame from the head offset: no
   re-allocation of the remainder, so a slow client costs O(bytes
   actually written), not O(backlog) per writable event. *)
let service_conn_write t conn =
  let rec go () =
    match Queue.peek_opt conn.c_out with
    | None -> ()
    | Some frame ->
      let len = String.length frame - conn.c_out_off in
      (match Unix.write_substring conn.c_fd frame conn.c_out_off len with
       | n ->
         conn.c_out_len <- conn.c_out_len - n;
         if n = len then begin
           ignore (Queue.pop conn.c_out);
           conn.c_out_off <- 0;
           go ()
         end
         else conn.c_out_off <- conn.c_out_off + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         ()
       | exception Unix.Unix_error _ -> disconnect t conn)
  in
  go ()

(* --- watchdogs ----------------------------------------------------- *)

(* Per-request deadlines, swept once per select tick.  The client is
   answered and the reservations released at once, and the job is
   stopped ({!stop}): a worker process is SIGKILLed (the campaign
   watchdog's containment boundary), while an in-domain job keeps its
   domain pinned until it reaches an interruption point (honest
   limitation of in-process containment; [--isolate] is the strong
   form).  Either way the error event echoes the deadline. *)
let deadline_error_message t elapsed_s =
  match t.config.job_timeout_s with
  | None -> assert false
  | Some limit ->
    Printf.sprintf
      "deadline exceeded: job ran %.1fs against the %gs --job-timeout"
      elapsed_s limit

let deadline_expire t running ~now =
  running.r_deadlined <- true;
  release_request t running.r_queued;
  Metrics.incr t.m_deadlined;
  Metrics.incr t.m_failed;
  let key = running.r_queued.q_key in
  let elapsed = now -. running.r_started_at in
  match Hashtbl.find_opt t.conns key.k_conn with
  | Some conn ->
    send_event conn ~id:key.k_req
      (Protocol.Error { message = deadline_error_message t elapsed })
  | None -> ()

let enforce_deadlines t =
  match t.config.job_timeout_s with
  | None -> ()
  | Some limit ->
    let now = Unix.gettimeofday () in
    let overdue r =
      (not r.r_deadlined) && (not r.r_cancelled)
      && now -. r.r_started_at > limit
    in
    Array.iter
      (fun slot ->
        match slot.job with
        | Some running when overdue running ->
          deadline_expire t running ~now;
          (* A worker killed over a deadline is an infrastructure event
             on its slot: repeated poison pins point at the worker until
             the breaker quarantines it. *)
          if stop slot ~retire:false then
            Sched.Breaker.record_failure slot.breaker ~now
        | _ -> ())
      t.slots

(* Disconnect peers that went silent mid-frame past the idle
   timeout — their reservations release through the normal disconnect
   path.  Collect first: [disconnect] mutates [t.conns]. *)
let enforce_conn_timeouts t =
  let now = Unix.gettimeofday () in
  Hashtbl.fold
    (fun _ c acc ->
      match c.c_frame_deadline with
      | Some deadline when (not c.c_dead) && now > deadline -> c :: acc
      | _ -> acc)
    t.conns []
  |> List.iter (fun c ->
         Metrics.incr t.m_conn_timeouts;
         disconnect t c)

(* --- the main loop ------------------------------------------------- *)

let busy t = Array.exists (fun slot -> slot.job <> None) t.slots

let close_listeners t =
  List.iter
    (fun fd ->
      close_noerr fd)
    t.listeners;
  t.listeners <- []

let teardown t =
  close_listeners t;
  Hashtbl.iter
    (fun _ conn ->
      flush_backlog conn;
      close_noerr conn.c_fd)
    t.conns;
  Hashtbl.reset t.conns;
  Array.iter (fun slot -> ignore (stop slot ~retire:true)) t.slots;
  (match Unix.lstat t.config.socket with
   | { Unix.st_kind = Unix.S_SOCK; _ } ->
     (try Unix.unlink t.config.socket with Unix.Unix_error _ -> ())
   | _ -> ()
   | exception Unix.Unix_error _ -> ())

(* [run ?interrupted ?on_ready config] — bind, serve until drained.
   [interrupted] turning true starts a graceful drain (the CLI wires
   SIGINT/SIGTERM to it); [on_ready] fires once the listeners are
   bound (tests and benches synchronize on it). *)
let run ?(interrupted = fun () -> false) ?(on_ready = fun () -> ()) config =
  let t = create config in
  let unix_listener = listen_unix config.socket in
  t.listeners <- [ unix_listener ];
  (match config.tcp with
   | Some (host, port) -> t.listeners <- t.listeners @ [ listen_tcp host port ]
   | None -> ());
  (* A peer that hangs up must surface as EPIPE on the write — the
     default SIGPIPE disposition would kill the whole daemon the first
     time a backlog flushes into a closed socket.  Restored on exit
     (same save/ignore/restore dance as the campaign executor). *)
  let prev_sigpipe =
    if Sys.os_type = "Win32" then None
    else
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_sigpipe () =
    match prev_sigpipe with
    | Some behavior ->
      (try Sys.set_signal Sys.sigpipe behavior with Invalid_argument _ -> ())
    | None -> ()
  in
  on_ready ();
  let rec loop () =
    if interrupted () then t.draining <- true;
    if t.draining then close_listeners t;
    (* Drop clients whose backlog overflowed (collect first: disconnect
       mutates [t.conns]). *)
    Hashtbl.fold
      (fun _ c acc -> if c.c_overflow && not c.c_dead then c :: acc else acc)
      t.conns []
    |> List.iter (fun c -> disconnect t c);
    (* Watchdogs: per-request deadlines, mid-frame silence.  Then a
       dispatch pass — queued work may be waiting on nothing but a
       breaker cooldown expiring, which no fd event announces. *)
    enforce_deadlines t;
    enforce_conn_timeouts t;
    if Sched.depth t.sched > 0 then try_dispatch t;
    let done_ =
      t.draining && Sched.depth t.sched = 0 && not (busy t)
      && Hashtbl.fold (fun _ c acc -> acc && c.c_out_len = 0) t.conns true
    in
    if done_ then ()
    else begin
      let reads =
        t.listeners
        @ Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) t.conns []
        @ Array.fold_left
            (fun acc slot ->
              match (slot.job, slot.worker) with
              | Some _, Some worker -> worker.w_fd :: acc
              | _ -> acc)
            [] t.slots
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc -> if c.c_out_len > 0 then c.c_fd :: acc else acc)
          t.conns []
      in
      let readable, writable, _ =
        match Unix.select reads writes [] 0.2 with
        | sets -> sets
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if List.memq fd t.listeners then accept_conn t fd
          else begin
            match
              Hashtbl.fold
                (fun _ c acc -> if c.c_fd == fd then Some c else acc)
                t.conns None
            with
            | Some conn -> service_conn_read t conn
            | None ->
              (match
                 Array.find_opt
                   (fun slot ->
                     match slot.worker with
                     | Some worker -> worker.w_fd == fd
                     | None -> false)
                   t.slots
               with
               | Some slot -> service_slot t slot
               | None -> ())
          end)
        readable;
      List.iter
        (fun fd ->
          match
            Hashtbl.fold
              (fun _ c acc -> if c.c_fd == fd then Some c else acc)
              t.conns None
          with
          | Some conn when not conn.c_dead && conn.c_out_len > 0 ->
            service_conn_write t conn
          | _ -> ())
        writable;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      teardown t;
      restore_sigpipe ())
    loop;
  t.obs

(* [with_daemon config f] — serve [config] on a fresh domain while
   [f ()] runs: [f] starts once the listeners are bound, and the daemon
   is drained and joined however [f] exits (doctor, golden hooks, the
   bench gates and the tests share this).  The drain is the
   [interrupted] path; a throwaway connection wakes the select loop so
   the drain starts now, not at the loop's next poll timeout.  [ready]
   is also set if [run] exits before binding (another daemon holds the
   socket, say); [f] then never runs and the start failure is raised
   from the join. *)
let with_daemon config f =
  let ready = Atomic.make false
  and bound = Atomic.make false
  and stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set ready true)
          (fun () ->
            run
              ~interrupted:(fun () -> Atomic.get stop)
              ~on_ready:(fun () ->
                Atomic.set bound true;
                Atomic.set ready true)
              config))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  if not (Atomic.get bound) then begin
    ignore (Domain.join daemon);
    failwith ("daemon exited before binding " ^ config.socket)
  end;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      let wake = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect wake (Unix.ADDR_UNIX config.socket)
       with Unix.Unix_error _ -> ());
      close_noerr wake;
      ignore (Domain.join daemon))
    f
