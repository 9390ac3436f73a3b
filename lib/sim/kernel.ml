(* Array-backed binary min-heap on (time, seq): earliest time first,
   FIFO among equal times. *)
module Heap = struct
  type entry = {
    time : int;
    seq : int;
    action : unit -> unit;
  }

  type t = {
    mutable data : entry array;
    mutable size : int;
  }

  let dummy = { time = 0; seq = 0; action = ignore }
  let create () = { data = Array.make 64 dummy; size = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h entry =
    if h.size = Array.length h.data then begin
      let grown = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 grown 0 h.size;
      h.data <- grown
    end;
    let rec up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if less h.data.(i) h.data.(parent) then begin
          let tmp = h.data.(i) in
          h.data.(i) <- h.data.(parent);
          h.data.(parent) <- tmp;
          up parent
        end
      end
    in
    h.data.(h.size) <- entry;
    h.size <- h.size + 1;
    up (h.size - 1)

  let peek h = if h.size = 0 then None else Some h.data.(0)

  let pop h =
    match peek h with
    | None -> None
    | Some top ->
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      h.data.(h.size) <- dummy;
      let rec down i =
        let left = (2 * i) + 1 and right = (2 * i) + 2 in
        let smallest = ref i in
        if left < h.size && less h.data.(left) h.data.(!smallest) then smallest := left;
        if right < h.size && less h.data.(right) h.data.(!smallest) then smallest := right;
        if !smallest <> i then begin
          let tmp = h.data.(i) in
          h.data.(i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          down !smallest
        end
      in
      down 0;
      Some top
end

(* Held only for perfbench, which compiles against these names. *)
type engine =
  | Classic
  | Compiled

let engine_name = function
  | Classic -> "classic"
  | Compiled -> "compiled"

type diagnosis =
  | Completed
  | Starved of { waiting : int }
  | Livelock of { time : int; delta_cycles : int }
  | Budget_exhausted of { steps : int }
  | Process_crashed of { name : string; error : string }

type guard = {
  max_delta_cycles : int option;
  max_steps : int option;
  contain_crashes : bool;
}

let default_guard =
  { max_delta_cycles = Some 1_000_000; max_steps = None; contain_crashes = false }

type t = {
  mutable now : int;
  mutable delta : int;
  timed : Heap.t;
  runnable : (unit -> unit) Queue.t;
  next_delta : (unit -> unit) Queue.t;
  mutable updates : (unit -> unit) list;  (* reversed request order *)
  mutable pre_run : (unit -> unit) list;  (* reversed registration order *)
  mutable seq : int;
  mutable stopping : bool;
  mutable running : bool;
  mutable containing : bool;  (* running with [contain_crashes]? *)
  mutable activations : int;
  mutable deltas : int;
  mutable time_advances : int;
  mutable update_actions : int;
  mutable diagnosis : diagnosis;
  mutable waiters : int;
  mutable label : string;
  mutable watchdog_trips : int;
  mutable contained_crashes : int;
  mutable crash : (string * string) option;  (* first contained crash *)
  metrics : Tabv_obs.Metrics.t;
  eval_timer : Tabv_obs.Metrics.timer;
  update_timer : Tabv_obs.Metrics.timer;
  advance_timer : Tabv_obs.Metrics.timer;
}

let create ?metrics () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Tabv_obs.Metrics.disabled ()
  in
  let t =
    {
      now = 0;
      delta = 0;
      timed = Heap.create ();
      runnable = Queue.create ();
      next_delta = Queue.create ();
      updates = [];
      pre_run = [];
      seq = 0;
      stopping = false;
      running = false;
      containing = false;
      activations = 0;
      deltas = 0;
      time_advances = 0;
      update_actions = 0;
      diagnosis = Completed;
      waiters = 0;
      label = "";
      watchdog_trips = 0;
      contained_crashes = 0;
      crash = None;
      metrics;
      eval_timer = Tabv_obs.Metrics.timer metrics "kernel.eval_phase";
      update_timer = Tabv_obs.Metrics.timer metrics "kernel.update_phase";
      advance_timer = Tabv_obs.Metrics.timer metrics "kernel.advance_phase";
    }
  in
  (* The kernel's own counters stay plain mutable ints on the hot
     path; the registry sees them through pull probes, which only cost
     at snapshot time. *)
  let open Tabv_obs.Metrics in
  probe metrics "kernel.activations" (fun () -> t.activations);
  probe metrics "kernel.delta_cycles" (fun () -> t.deltas);
  probe metrics "kernel.time_advances" (fun () -> t.time_advances);
  probe metrics "kernel.update_actions" (fun () -> t.update_actions);
  probe metrics "kernel.timed_scheduled" (fun () -> t.seq);
  probe metrics "kernel.sim_time_ns" ~combine:`Max (fun () -> t.now);
  probe metrics "kernel.watchdog_trips" (fun () -> t.watchdog_trips);
  probe metrics "kernel.contained_crashes" (fun () -> t.contained_crashes);
  probe metrics "kernel.blocked_waiters" ~combine:`Max (fun () -> t.waiters);
  t

let metrics t = t.metrics
let add_pre_run_hook t f = t.pre_run <- f :: t.pre_run

let now t = t.now
let delta t = t.delta

let schedule_at t ~time action =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Kernel.schedule_at: time %d is in the past (now %d)" time t.now);
  t.seq <- t.seq + 1;
  Heap.push t.timed { Heap.time; seq = t.seq; action }

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Kernel.schedule_after: negative delay";
  schedule_at t ~time:(t.now + delay) action

let schedule_now t action = Queue.add action t.runnable
let schedule_next_delta t action = Queue.add action t.next_delta

(* One call per event fire: [fs] is the event's registration-ordered
   handler array, [n] its live prefix. *)
let schedule_next_delta_batch t fs n =
  for i = 0 to n - 1 do
    Queue.add (Array.unsafe_get fs i) t.next_delta
  done

let request_update t action = t.updates <- action :: t.updates

let stop t = t.stopping <- true
let stopping t = t.stopping

(* Block-runner hooks (see [Checker.attach]): a checker pool steps
   several monitors from one scheduled action, so it maintains the
   per-activation bookkeeping the evaluation loop would otherwise do —
   one [add_activation] per extra monitor, crash containment through
   [containing]/[record_crash] with the same attribution as the
   in-loop handler. *)
let containing t = t.containing
let add_activation t = t.activations <- t.activations + 1

let record_crash t e =
  t.contained_crashes <- t.contained_crashes + 1;
  if t.crash = None then begin
    let name = if t.label = "" then "<anonymous>" else t.label in
    t.crash <- Some (name, Printexc.to_string e)
  end

let add_waiter t = t.waiters <- t.waiters + 1
let remove_waiter t = t.waiters <- t.waiters - 1
let set_label t name = t.label <- name

(* --- the three-phase loop ----------------------------------------------- *)

let run ?until ?(guard = default_guard) t =
  (* Pre-run hooks first (elaboration checks the design here), in
     registration order. *)
  List.iter (fun hook -> hook ()) (List.rev t.pre_run);
  if t.running then invalid_arg "Kernel.run: already running";
  t.running <- true;
  t.stopping <- false;
  t.containing <- guard.contain_crashes;
  t.crash <- None;
  t.diagnosis <- Completed;
  let steps0 = t.time_advances in
  (* A tripped watchdog ends the run gracefully: the verdict is
     recorded here and surfaced through {!last_diagnosis}. *)
  let tripped = ref None in
  let horizon_ok time =
    match until with
    | None -> true
    | Some h -> time <= h
  in
  let rec loop () =
    if t.stopping || !tripped <> None then ()
    else begin
      (* Evaluation phase. *)
      Tabv_obs.Metrics.start t.eval_timer;
      if guard.contain_crashes then
        while not (Queue.is_empty t.runnable) && not t.stopping do
          let action = Queue.pop t.runnable in
          t.activations <- t.activations + 1;
          try action ()
          with e ->
            (* Contain the crash: the raising process is dead (its
               continuation is lost with the exception), the rest of
               the design keeps simulating, and the first crash is
               attributed to the last labelled process. *)
            record_crash t e
        done
      else
        while not (Queue.is_empty t.runnable) && not t.stopping do
          let action = Queue.pop t.runnable in
          t.activations <- t.activations + 1;
          action ()
        done;
      Tabv_obs.Metrics.stop t.eval_timer;
      if t.stopping then ()
      else begin
        (* Update phase (FIFO order of requests). *)
        Tabv_obs.Metrics.start t.update_timer;
        let updates = List.rev t.updates in
        t.updates <- [];
        List.iter
          (fun u ->
            t.update_actions <- t.update_actions + 1;
            u ())
          updates;
        Tabv_obs.Metrics.stop t.update_timer;
        (* Delta notification phase. *)
        if not (Queue.is_empty t.next_delta) then begin
          match guard.max_delta_cycles with
          | Some cap when t.delta >= cap ->
            (* Livelock watchdog: the instant never converges. *)
            t.watchdog_trips <- t.watchdog_trips + 1;
            Queue.clear t.next_delta;
            tripped := Some (Livelock { time = t.now; delta_cycles = t.delta })
          | Some _ | None ->
            Queue.transfer t.next_delta t.runnable;
            t.delta <- t.delta + 1;
            t.deltas <- t.deltas + 1;
            loop ()
        end
        else begin
          (* Advance time to the next timed action, if any. *)
          Tabv_obs.Metrics.start t.advance_timer;
          let advanced =
            match Heap.peek t.timed with
            | Some { Heap.time; _ } when horizon_ok time ->
              (match guard.max_steps with
               | Some cap when t.time_advances - steps0 >= cap ->
                 (* Step-budget watchdog: too many time advances. *)
                 t.watchdog_trips <- t.watchdog_trips + 1;
                 tripped := Some (Budget_exhausted { steps = cap });
                 false
               | Some _ | None ->
                 t.now <- time;
                 t.delta <- 0;
                 t.time_advances <- t.time_advances + 1;
                 let rec drain () =
                   match Heap.peek t.timed with
                   | Some entry when entry.Heap.time = time ->
                     ignore (Heap.pop t.timed);
                     Queue.add entry.Heap.action t.runnable;
                     drain ()
                   | Some _ | None -> ()
                 in
                 drain ();
                 true)
            | Some _ | None -> false
          in
          Tabv_obs.Metrics.stop t.advance_timer;
          if advanced then loop ()
        end
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      t.running <- false;
      t.containing <- false)
    (fun () -> loop ());
  let ended_by_horizon =
    match Heap.peek t.timed with
    | Some e -> not (horizon_ok e.Heap.time)
    | None -> false
  in
  t.diagnosis <-
    (match t.crash with
    | Some (name, error) -> Process_crashed { name; error }
    | None -> (
      match !tripped with
      | Some d -> d
      | None ->
        if (not t.stopping) && (not ended_by_horizon) && t.waiters > 0 then
          (* Quiescent end with processes still blocked on events that
             can no longer fire: event starvation, not completion. *)
          Starved { waiting = t.waiters }
        else Completed));
  t.now

let last_diagnosis t = t.diagnosis

let diagnosis_to_string = function
  | Completed -> "completed"
  | Starved { waiting } -> Printf.sprintf "starved(waiting=%d)" waiting
  | Livelock { time; delta_cycles } ->
    Printf.sprintf "livelock(time=%d,delta_cycles=%d)" time delta_cycles
  | Budget_exhausted { steps } -> Printf.sprintf "budget_exhausted(steps=%d)" steps
  | Process_crashed { name; error } ->
    Printf.sprintf "process_crashed(%s: %s)" name error

let activation_count t = t.activations
let delta_count t = t.deltas
let watchdog_trip_count t = t.watchdog_trips
let contained_crash_count t = t.contained_crashes
