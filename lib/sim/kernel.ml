(* The kernel's queues are submodules: the dev profile compiles every
   module [-opaque], so a call into another module is never inlined. *)

(* Timed actions: a binary min-heap on (time, seq), earliest time
   first and FIFO among equal times, as three parallel arrays.  A push
   or a pop writes slots and allocates nothing: the sift functions are
   top level, not closures, and move a hole instead of swapping. *)
module Heap = struct
  type t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable actions : (unit -> unit) array;
    mutable size : int;
  }

  let create () =
    { times = Array.make 64 0; seqs = Array.make 64 0; actions = Array.make 64 ignore;
      size = 0 }

  let is_empty h = h.size = 0
  let min_time h = Array.unsafe_get h.times 0

  (* Is slot [i] earlier than (time, seq)?  Seqs are unique. *)
  let before h i time seq =
    let t = Array.unsafe_get h.times i in
    t < time || (t = time && Array.unsafe_get h.seqs i < seq)

  let set h i time seq action =
    Array.unsafe_set h.times i time;
    Array.unsafe_set h.seqs i seq;
    Array.unsafe_set h.actions i action

  let move h ~src ~dst =
    set h dst (Array.unsafe_get h.times src) (Array.unsafe_get h.seqs src)
      (Array.unsafe_get h.actions src)

  (* Fill the hole at [i] with (time, seq, action) or an ancestor. *)
  let rec sift_up h i time seq action =
    let parent = (i - 1) / 2 in
    if i > 0 && not (before h parent time seq) then begin
      move h ~src:parent ~dst:i;
      sift_up h parent time seq action
    end
    else set h i time seq action

  (* Fill the hole at [i] with (time, seq, action) or a descendant. *)
  let rec sift_down h i time seq action =
    let left = (2 * i) + 1 in
    let child =
      if left + 1 < h.size
         && before h (left + 1) (Array.unsafe_get h.times left) (Array.unsafe_get h.seqs left)
      then left + 1
      else left
    in
    if child < h.size && before h child time seq then begin
      move h ~src:child ~dst:i;
      sift_down h child time seq action
    end
    else set h i time seq action

  let push h time seq action =
    if h.size = Array.length h.times then begin
      let grow a fill = Array.append a (Array.make h.size fill) in
      h.times <- grow h.times 0;
      h.seqs <- grow h.seqs 0;
      h.actions <- grow h.actions ignore
    end;
    h.size <- h.size + 1;
    sift_up h (h.size - 1) time seq action

  (* The earliest action, from a non-empty heap.  The vacated slot is
     cleared: the heap keeps no popped action alive. *)
  let pop h =
    let top = Array.unsafe_get h.actions 0 and last = h.size - 1 in
    let action = Array.unsafe_get h.actions last in
    Array.unsafe_set h.actions last ignore;
    h.size <- last;
    if last > 0 then
      sift_down h 0 (Array.unsafe_get h.times last) (Array.unsafe_get h.seqs last) action;
    top
end

(* A FIFO of actions in one flat array, [data.(read)] to
   [data.(write - 1)]: a push writes a slot and a pop clears one, so
   nothing is allocated per action and no popped action is kept alive.
   A drained buffer starts again at slot 0. *)
module Actions = struct
  type t = {
    mutable data : (unit -> unit) array;
    mutable read : int;
    mutable write : int;
  }

  let create () = { data = Array.make 64 ignore; read = 0; write = 0 }
  let is_empty b = b.read = b.write
  let length b = b.write - b.read

  (* Room for [n] more entries: the queued ones slide to the front, of
     a larger array if they would fill more than half of this one. *)
  let reserve b n =
    let live = b.write - b.read in
    if 2 * (live + n) > Array.length b.data then begin
      let data = Array.make (2 * (live + n)) ignore in
      Array.blit b.data b.read data 0 live;
      b.data <- data
    end
    else begin
      Array.blit b.data b.read b.data 0 live;
      Array.fill b.data live (b.write - live) ignore
    end;
    b.read <- 0;
    b.write <- live

  let push b action =
    if b.write = Array.length b.data then reserve b 1;
    Array.unsafe_set b.data b.write action;
    b.write <- b.write + 1

  (* Append [actions.(0)] to [actions.(n - 1)]. *)
  let push_prefix b actions n =
    if b.write + n > Array.length b.data then reserve b n;
    for i = 0 to n - 1 do
      Array.unsafe_set b.data (b.write + i) (Array.unsafe_get actions i)
    done;
    b.write <- b.write + n

  (* The oldest entry of a non-empty buffer. *)
  let pop b =
    let i = b.read in
    let action = Array.unsafe_get b.data i in
    Array.unsafe_set b.data i ignore;
    if i + 1 = b.write then begin
      b.read <- 0;
      b.write <- 0
    end
    else b.read <- i + 1;
    action
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
  (* The two swap at a delta boundary, where [runnable] is drained. *)
  mutable runnable : Actions.t;
  mutable next_delta : Actions.t;
  updates : Actions.t;
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
      runnable = Actions.create ();
      next_delta = Actions.create ();
      updates = Actions.create ();
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

let now t = t.now
let delta t = t.delta

let schedule_at t ~time action =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Kernel.schedule_at: time %d is in the past (now %d)" time t.now);
  t.seq <- t.seq + 1;
  Heap.push t.timed time t.seq action

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Kernel.schedule_after: negative delay";
  schedule_at t ~time:(t.now + delay) action

let schedule_now t action = Actions.push t.runnable action
let schedule_next_delta t action = Actions.push t.next_delta action

(* One call per event fire: [fs] is the event's registration-ordered
   handler array, [n] its live prefix. *)
let schedule_next_delta_batch t fs n = Actions.push_prefix t.next_delta fs n
let request_update t action = Actions.push t.updates action

let stop t = t.stopping <- true
let stopping t = t.stopping

(* Block-runner hooks (see [Checker.attach]): a checker pool steps
   several monitors from one scheduled action, so it maintains the
   per-activation bookkeeping the evaluation loop would otherwise do —
   one [add_activations] call for its extra monitors, crash containment
   through [containing]/[record_crash] with the same attribution as the
   in-loop handler. *)
let containing t = t.containing
let add_activations t n = t.activations <- t.activations + n

let record_crash t e =
  t.contained_crashes <- t.contained_crashes + 1;
  if t.crash = None then begin
    let name = if t.label = "" then "<anonymous>" else t.label in
    t.crash <- Some (name, Printexc.to_string e)
  end

let add_waiter t = t.waiters <- t.waiters + 1
let remove_waiter t = t.waiters <- t.waiters - 1

(* A thread resumed again under the same name costs no write barrier. *)
let set_label t name = if t.label != name then t.label <- name

(* --- the three-phase loop ----------------------------------------------- *)

let run ?until ?(guard = default_guard) t =
  if t.running then invalid_arg "Kernel.run: already running";
  t.running <- true;
  t.stopping <- false;
  t.containing <- guard.contain_crashes;
  t.crash <- None;
  t.diagnosis <- Completed;
  let steps0 = t.time_advances in
  (* Phase timers sample only on a registry with a clock; that is
     decided once per run, not on every turn of the loop. *)
  let timing = Tabv_obs.Metrics.timing t.metrics in
  (* A tripped watchdog ends the run gracefully: the verdict is
     recorded here and surfaced through {!last_diagnosis}. *)
  let tripped = ref None in
  let horizon = Option.value until ~default:max_int in
  let rec loop () =
    match !tripped with
    | Some _ -> ()
    | None when t.stopping -> ()
    | None ->
      (* Evaluation phase. *)
      if timing then Tabv_obs.Metrics.start t.eval_timer;
      if guard.contain_crashes then
        while not (Actions.is_empty t.runnable || t.stopping) do
          let action = Actions.pop t.runnable in
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
        while not (Actions.is_empty t.runnable || t.stopping) do
          let action = Actions.pop t.runnable in
          t.activations <- t.activations + 1;
          action ()
        done;
      if timing then Tabv_obs.Metrics.stop t.eval_timer;
      if t.stopping then ()
      else begin
        (* Update phase, in request order.  An update requested while
           the phase runs waits for the next update phase. *)
        if timing then Tabv_obs.Metrics.start t.update_timer;
        for _ = 1 to Actions.length t.updates do
          let update = Actions.pop t.updates in
          t.update_actions <- t.update_actions + 1;
          update ()
        done;
        if timing then Tabv_obs.Metrics.stop t.update_timer;
        (* Delta notification phase. *)
        if not (Actions.is_empty t.next_delta) then begin
          match guard.max_delta_cycles with
          | Some cap when t.delta >= cap ->
            (* Livelock watchdog: the instant never converges. *)
            t.watchdog_trips <- t.watchdog_trips + 1;
            t.next_delta <- Actions.create ();
            tripped := Some (Livelock { time = t.now; delta_cycles = t.delta })
          | Some _ | None ->
            if Actions.is_empty t.runnable then begin
              let drained = t.runnable in
              t.runnable <- t.next_delta;
              t.next_delta <- drained
            end
            else
              (* An update action called [schedule_now]: append. *)
              while not (Actions.is_empty t.next_delta) do
                Actions.push t.runnable (Actions.pop t.next_delta)
              done;
            t.delta <- t.delta + 1;
            t.deltas <- t.deltas + 1;
            loop ()
        end
        else begin
          (* Advance time to the next timed action, if any. *)
          if timing then Tabv_obs.Metrics.start t.advance_timer;
          let advanced =
            if Heap.is_empty t.timed || Heap.min_time t.timed > horizon then false
            else
              match guard.max_steps with
              | Some cap when t.time_advances - steps0 >= cap ->
                (* Step-budget watchdog: too many time advances. *)
                t.watchdog_trips <- t.watchdog_trips + 1;
                tripped := Some (Budget_exhausted { steps = cap });
                false
              | Some _ | None ->
                let time = Heap.min_time t.timed in
                t.now <- time;
                t.delta <- 0;
                t.time_advances <- t.time_advances + 1;
                while (not (Heap.is_empty t.timed)) && Heap.min_time t.timed = time do
                  Actions.push t.runnable (Heap.pop t.timed)
                done;
                true
          in
          if timing then Tabv_obs.Metrics.stop t.advance_timer;
          if advanced then loop ()
        end
      end
  in
  Fun.protect
    ~finally:(fun () ->
      t.running <- false;
      t.containing <- false)
    (fun () -> loop ());
  let ended_by_horizon =
    (not (Heap.is_empty t.timed)) && Heap.min_time t.timed > horizon
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
