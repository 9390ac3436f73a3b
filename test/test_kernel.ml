open Tabv_sim

let run_kernel_case name f = Alcotest.test_case name `Quick f

let scheduling_cases =
  [ run_kernel_case "time starts at zero" (fun () ->
      let k = Kernel.create () in
      Alcotest.(check int) "now" 0 (Kernel.now k));
    run_kernel_case "timed actions run in time order" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Kernel.schedule_at k ~time:30 (fun () -> log := 30 :: !log);
      Kernel.schedule_at k ~time:10 (fun () -> log := 10 :: !log);
      Kernel.schedule_at k ~time:20 (fun () -> log := 20 :: !log);
      let final = Kernel.run k in
      Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
      Alcotest.(check int) "final time" 30 final);
    run_kernel_case "same-time actions run FIFO" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      List.iter
        (fun i -> Kernel.schedule_at k ~time:10 (fun () -> log := i :: !log))
        [ 1; 2; 3 ];
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log));
    run_kernel_case "scheduling in the past rejected" (fun () ->
      let k = Kernel.create () in
      Kernel.schedule_at k ~time:50 (fun () ->
        match Kernel.schedule_at k ~time:20 ignore with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
      ignore (Kernel.run k));
    run_kernel_case "negative delay rejected" (fun () ->
      let k = Kernel.create () in
      match Kernel.schedule_after k ~delay:(-1) ignore with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
    run_kernel_case "until horizon stops before later events" (fun () ->
      let k = Kernel.create () in
      let fired = ref [] in
      Kernel.schedule_at k ~time:10 (fun () -> fired := 10 :: !fired);
      Kernel.schedule_at k ~time:100 (fun () -> fired := 100 :: !fired);
      let final = Kernel.run ~until:50 k in
      Alcotest.(check (list int)) "fired" [ 10 ] (List.rev !fired);
      Alcotest.(check int) "stopped at" 10 final);
    run_kernel_case "stop ends the run" (fun () ->
      let k = Kernel.create () in
      let fired = ref 0 in
      Kernel.schedule_at k ~time:10 (fun () ->
        incr fired;
        Kernel.stop k);
      Kernel.schedule_at k ~time:20 (fun () -> incr fired);
      ignore (Kernel.run k);
      Alcotest.(check int) "only first" 1 !fired);
    run_kernel_case "delta cycles at one instant" (fun () ->
      let k = Kernel.create () in
      let deltas = ref [] in
      Kernel.schedule_at k ~time:10 (fun () ->
        deltas := Kernel.delta k :: !deltas;
        Kernel.schedule_next_delta k (fun () ->
          deltas := Kernel.delta k :: !deltas;
          Kernel.schedule_next_delta k (fun () -> deltas := Kernel.delta k :: !deltas)));
      ignore (Kernel.run k);
      Alcotest.(check (list int)) "deltas" [ 0; 1; 2 ] (List.rev !deltas));
    run_kernel_case "updates run between evaluation and delta phases" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Kernel.schedule_at k ~time:5 (fun () ->
        log := "eval" :: !log;
        Kernel.request_update k (fun () -> log := "update" :: !log);
        Kernel.schedule_next_delta k (fun () -> log := "delta" :: !log));
      ignore (Kernel.run k);
      Alcotest.(check (list string)) "phases" [ "eval"; "update"; "delta" ] (List.rev !log));
    run_kernel_case "activation count" (fun () ->
      let k = Kernel.create () in
      for i = 1 to 5 do
        Kernel.schedule_at k ~time:(i * 10) ignore
      done;
      ignore (Kernel.run k);
      Alcotest.(check int) "activations" 5 (Kernel.activation_count k)) ]

let event_cases =
  [ run_kernel_case "static subscribers persist" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let count = ref 0 in
      Event.on_event ev (fun () -> incr count);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      Kernel.schedule_at k ~time:20 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "twice" 2 !count;
      Alcotest.(check int) "notifications" 2 (Event.notification_count ev));
    run_kernel_case "dynamic subscribers fire once" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "e" in
      let count = ref 0 in
      Event.once ev (fun () -> incr count);
      Kernel.schedule_at k ~time:10 (fun () -> Event.notify ev);
      Kernel.schedule_at k ~time:20 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "once" 1 !count) ]

let thread_cases =
  [ run_kernel_case "thread wait_ns" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Process.spawn k ~name:"t" (fun () ->
        log := (Kernel.now k, "start") :: !log;
        Process.wait_ns k 15;
        log := (Kernel.now k, "mid") :: !log;
        Process.wait_ns k 5;
        log := (Kernel.now k, "end") :: !log);
      ignore (Kernel.run k);
      Alcotest.(check (list (pair int string)))
        "timeline"
        [ (0, "start"); (15, "mid"); (20, "end") ]
        (List.rev !log));
    run_kernel_case "thread wait_event" (fun () ->
      let k = Kernel.create () in
      let ev = Event.create k "go" in
      let woke_at = ref (-1) in
      Process.spawn k ~name:"t" (fun () ->
        Process.wait_event ev;
        woke_at := Kernel.now k);
      Kernel.schedule_at k ~time:42 (fun () -> Event.notify ev);
      ignore (Kernel.run k);
      Alcotest.(check int) "woke" 42 !woke_at);
    run_kernel_case "two threads interleave deterministically" (fun () ->
      let k = Kernel.create () in
      let log = ref [] in
      Process.spawn k ~name:"a" (fun () ->
        Process.wait_ns k 10;
        log := "a10" :: !log;
        Process.wait_ns k 10;
        log := "a20" :: !log);
      Process.spawn k ~name:"b" (fun () ->
        Process.wait_ns k 10;
        log := "b10" :: !log;
        Process.wait_ns k 15;
        log := "b25" :: !log);
      ignore (Kernel.run k);
      Alcotest.(check (list string)) "order" [ "a10"; "b10"; "a20"; "b25" ] (List.rev !log)) ]

let stress_cases =
  [ Helpers.qtest ~count:30 "heap delivers thousands of events in time order"
      QCheck.(list_of_size (QCheck.Gen.return 500) (int_bound 5000))
      (fun delays ->
        let k = Kernel.create () in
        let fired = ref [] in
        List.iteri
          (fun i delay ->
            Kernel.schedule_at k ~time:delay (fun () -> fired := (delay, i) :: !fired))
          delays;
        ignore (Kernel.run k);
        let fired = List.rev !fired in
        (* Non-decreasing times; FIFO among equal times. *)
        let rec ordered = function
          | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
          | [ _ ] | [] -> true
        in
        List.length fired = List.length delays && ordered fired);
    Helpers.qtest ~count:30 "nested scheduling preserves causality"
      QCheck.(list_of_size (QCheck.Gen.return 100) (int_bound 50))
      (fun delays ->
        let k = Kernel.create () in
        let violations = ref 0 in
        List.iter
          (fun delay ->
            Kernel.schedule_at k ~time:delay (fun () ->
              let scheduled_at = Kernel.now k in
              Kernel.schedule_after k ~delay:(1 + (delay mod 7)) (fun () ->
                if Kernel.now k < scheduled_at then incr violations)))
          delays;
        ignore (Kernel.run k);
        !violations = 0) ]

(* Watchdogs and end-of-run diagnosis: the graceful-degradation layer
   the fault-qualification campaigns rely on.  Every diverging
   behaviour (delta livelock, runaway time advance, process crash,
   deadlocked waiters) must terminate with the matching structured
   diagnosis instead of hanging or killing the process. *)
let watchdog_cases =
  [ run_kernel_case "clean run diagnoses Completed" (fun () ->
      let k = Kernel.create () in
      Kernel.schedule_at k ~time:10 ignore;
      ignore (Kernel.run k);
      Alcotest.(check bool) "completed" true
        (Kernel.last_diagnosis k = Kernel.Completed);
      Alcotest.(check int) "no trips" 0 (Kernel.watchdog_trip_count k));
    run_kernel_case "delta cap diagnoses Livelock at the diverging instant"
      (fun () ->
        let k = Kernel.create () in
        let rec spin () = Kernel.schedule_next_delta k spin in
        Kernel.schedule_at k ~time:40 spin;
        let guard = { Kernel.default_guard with max_delta_cycles = Some 50 } in
        ignore (Kernel.run ~guard k);
        (match Kernel.last_diagnosis k with
         | Kernel.Livelock { time; delta_cycles } ->
           Alcotest.(check int) "time" 40 time;
           Alcotest.(check bool) "cap reached" true (delta_cycles >= 50)
         | d ->
           Alcotest.failf "expected livelock, got %s"
             (Kernel.diagnosis_to_string d));
        Alcotest.(check int) "one trip" 1 (Kernel.watchdog_trip_count k));
    run_kernel_case "step budget diagnoses Budget_exhausted" (fun () ->
      let k = Kernel.create () in
      let rec tick time =
        Kernel.schedule_at k ~time (fun () -> tick (time + 10))
      in
      tick 10;
      let guard = { Kernel.default_guard with max_steps = Some 25 } in
      ignore (Kernel.run ~guard k);
      match Kernel.last_diagnosis k with
      | Kernel.Budget_exhausted { steps } ->
        Alcotest.(check int) "steps" 25 steps
      | d ->
        Alcotest.failf "expected budget_exhausted, got %s"
          (Kernel.diagnosis_to_string d));
    run_kernel_case "contained crash is attributed and the run continues"
      (fun () ->
        let k = Kernel.create () in
        let survivor = ref false in
        Process.spawn k ~name:"victim" (fun () ->
          Process.wait_ns k 10;
          failwith "boom");
        Kernel.schedule_at k ~time:20 (fun () -> survivor := true);
        let guard = { Kernel.default_guard with contain_crashes = true } in
        ignore (Kernel.run ~guard k);
        Alcotest.(check bool) "later event still fired" true !survivor;
        Alcotest.(check int) "contained" 1 (Kernel.contained_crash_count k);
        match Kernel.last_diagnosis k with
        | Kernel.Process_crashed { name; error } ->
          Alcotest.(check string) "name" "victim" name;
          Alcotest.(check bool) "error recorded" true (String.length error > 0)
        | d ->
          Alcotest.failf "expected process_crashed, got %s"
            (Kernel.diagnosis_to_string d));
    run_kernel_case "uncontained crash still propagates" (fun () ->
      let k = Kernel.create () in
      Process.spawn k ~name:"victim" (fun () -> failwith "boom");
      match Kernel.run k with
      | _ -> Alcotest.fail "expected the exception to propagate"
      | exception Failure _ -> ());
    run_kernel_case "deadlock regression: starved waiters are diagnosed"
      (fun () ->
        (* A process blocks on an event nobody ever notifies.  The run
           must terminate (no events left) and report the blocked
           waiter instead of claiming completion. *)
        let k = Kernel.create () in
        let never = Event.create k "never" in
        Process.spawn k ~name:"blocked" (fun () -> Process.wait_event never);
        Kernel.schedule_at k ~time:10 ignore;
        ignore (Kernel.run k);
        match Kernel.last_diagnosis k with
        | Kernel.Starved { waiting } -> Alcotest.(check int) "waiting" 1 waiting
        | d ->
          Alcotest.failf "expected starved, got %s"
            (Kernel.diagnosis_to_string d)) ]

(* --- event order against a reference scheduler ---------------------- *)

(* The kernel's scheduler as it stood before its queues became flat
   buffers, transcribed: [Queue.t] run and next-delta queues, a
   reversed update list and a heap of records.  Only its counters
   became plain fields (the kernel reports them through probes). *)
module Reference = struct
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

  type t = {
    mutable now : int;
    mutable delta : int;
    timed : Heap.t;
    runnable : (unit -> unit) Queue.t;
    next_delta : (unit -> unit) Queue.t;
    mutable updates : (unit -> unit) list;
    mutable seq : int;
    mutable stopping : bool;
    mutable running : bool;
    mutable activations : int;
    mutable deltas : int;
    mutable time_advances : int;
    mutable update_actions : int;
    mutable diagnosis : Kernel.diagnosis;
    mutable waiters : int;
    mutable label : string;
    mutable watchdog_trips : int;
    mutable contained_crashes : int;
    mutable crash : (string * string) option;
  }

  let create () =
    { now = 0; delta = 0; timed = Heap.create (); runnable = Queue.create ();
      next_delta = Queue.create (); updates = []; seq = 0; stopping = false;
      running = false; activations = 0; deltas = 0; time_advances = 0;
      update_actions = 0; diagnosis = Kernel.Completed; waiters = 0; label = "";
      watchdog_trips = 0; contained_crashes = 0; crash = None }

  let now t = t.now
  let delta t = t.delta

  let schedule_at t ~time action =
    if time < t.now then invalid_arg "Reference.schedule_at: time in the past";
    t.seq <- t.seq + 1;
    Heap.push t.timed { Heap.time; seq = t.seq; action }

  let schedule_after t ~delay action = schedule_at t ~time:(t.now + delay) action
  let schedule_now t action = Queue.add action t.runnable
  let schedule_next_delta t action = Queue.add action t.next_delta

  let schedule_next_delta_batch t fs n =
    for i = 0 to n - 1 do
      Queue.add fs.(i) t.next_delta
    done

  let request_update t action = t.updates <- action :: t.updates
  let stop t = t.stopping <- true
  let add_waiter t = t.waiters <- t.waiters + 1
  let remove_waiter t = t.waiters <- t.waiters - 1
  let set_label t name = t.label <- name

  let record_crash t e =
    t.contained_crashes <- t.contained_crashes + 1;
    if t.crash = None then begin
      let name = if t.label = "" then "<anonymous>" else t.label in
      t.crash <- Some (name, Printexc.to_string e)
    end

  let run ?until ?(guard = Kernel.default_guard) t =
    if t.running then invalid_arg "Reference.run: already running";
    t.running <- true;
    t.stopping <- false;
    t.crash <- None;
    t.diagnosis <- Kernel.Completed;
    let steps0 = t.time_advances in
    let tripped = ref None in
    let horizon_ok time =
      match until with
      | None -> true
      | Some h -> time <= h
    in
    let rec loop () =
      if t.stopping || !tripped <> None then ()
      else begin
        if guard.Kernel.contain_crashes then
          while not (Queue.is_empty t.runnable) && not t.stopping do
            let action = Queue.pop t.runnable in
            t.activations <- t.activations + 1;
            try action () with e -> record_crash t e
          done
        else
          while not (Queue.is_empty t.runnable) && not t.stopping do
            let action = Queue.pop t.runnable in
            t.activations <- t.activations + 1;
            action ()
          done;
        if t.stopping then ()
        else begin
          let updates = List.rev t.updates in
          t.updates <- [];
          List.iter
            (fun u ->
              t.update_actions <- t.update_actions + 1;
              u ())
            updates;
          if not (Queue.is_empty t.next_delta) then begin
            match guard.Kernel.max_delta_cycles with
            | Some cap when t.delta >= cap ->
              t.watchdog_trips <- t.watchdog_trips + 1;
              Queue.clear t.next_delta;
              tripped := Some (Kernel.Livelock { time = t.now; delta_cycles = t.delta })
            | Some _ | None ->
              Queue.transfer t.next_delta t.runnable;
              t.delta <- t.delta + 1;
              t.deltas <- t.deltas + 1;
              loop ()
          end
          else begin
            let advanced =
              match Heap.peek t.timed with
              | Some { Heap.time; _ } when horizon_ok time -> (
                match guard.Kernel.max_steps with
                | Some cap when t.time_advances - steps0 >= cap ->
                  t.watchdog_trips <- t.watchdog_trips + 1;
                  tripped := Some (Kernel.Budget_exhausted { steps = cap });
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
            if advanced then loop ()
          end
        end
      end
    in
    Fun.protect ~finally:(fun () -> t.running <- false) (fun () -> loop ());
    let ended_by_horizon =
      match Heap.peek t.timed with
      | Some e -> not (horizon_ok e.Heap.time)
      | None -> false
    in
    t.diagnosis <-
      (match t.crash with
      | Some (name, error) -> Kernel.Process_crashed { name; error }
      | None -> (
        match !tripped with
        | Some d -> d
        | None ->
          if (not t.stopping) && (not ended_by_horizon) && t.waiters > 0 then
            Kernel.Starved { waiting = t.waiters }
          else Kernel.Completed));
    t.now

  let last_diagnosis t = t.diagnosis

  (* Named as the kernel's probes, sorted by name. *)
  let counters t =
    [ ("kernel.activations", t.activations);
      ("kernel.blocked_waiters", t.waiters);
      ("kernel.contained_crashes", t.contained_crashes);
      ("kernel.delta_cycles", t.deltas);
      ("kernel.sim_time_ns", t.now);
      ("kernel.time_advances", t.time_advances);
      ("kernel.timed_scheduled", t.seq);
      ("kernel.update_actions", t.update_actions);
      ("kernel.watchdog_trips", t.watchdog_trips) ]
end

module type SCHEDULER = sig
  type t

  val create : unit -> t
  val now : t -> int
  val delta : t -> int
  val schedule_at : t -> time:int -> (unit -> unit) -> unit
  val schedule_after : t -> delay:int -> (unit -> unit) -> unit
  val schedule_now : t -> (unit -> unit) -> unit
  val schedule_next_delta : t -> (unit -> unit) -> unit
  val schedule_next_delta_batch : t -> (unit -> unit) array -> int -> unit
  val request_update : t -> (unit -> unit) -> unit
  val stop : t -> unit
  val add_waiter : t -> unit
  val remove_waiter : t -> unit
  val set_label : t -> string -> unit
  val run : ?until:int -> ?guard:Kernel.guard -> t -> int
  val last_diagnosis : t -> Kernel.diagnosis
  val counters : t -> (string * int) list
end

module Real = struct
  include Kernel

  let create () = Kernel.create ~metrics:(Tabv_obs.Metrics.create ()) ()

  let counters k =
    List.filter_map
      (function
        | name, Tabv_obs.Metrics.Gauge v when String.starts_with ~prefix:"kernel." name ->
          Some (name, v)
        | _ -> None)
      (Tabv_obs.Metrics.snapshot (Kernel.metrics k))
end

(* A random program over the kernel API: each node, when it runs, logs
   (id, time, delta), names itself with [set_label] and performs its
   operations in order. *)
type node = {
  id : int;
  ops : op list;
}

and op =
  | After of int * node  (* schedule_after *)
  | At of int * node  (* schedule_at, relative to now *)
  | Now of node
  | Next of node
  | Batch of node list * int  (* schedule_next_delta_batch of a prefix *)
  | Update of node
  | Stop
  | Crash
  | Wait  (* add_waiter *)
  | Release  (* remove_waiter *)

type program = {
  root : node;  (* its operations run before the first [run] *)
  guard : Kernel.guard;
  untils : int option * int option;  (* horizons of the two runs *)
}

let rec pp_node b { id; ops } =
  Printf.bprintf b "%d[" id;
  List.iter
    (fun op ->
      (match op with
       | After (d, n) -> Printf.bprintf b "after %d " d; pp_node b n
       | At (d, n) -> Printf.bprintf b "at +%d " d; pp_node b n
       | Now n -> Buffer.add_string b "now "; pp_node b n
       | Next n -> Buffer.add_string b "next "; pp_node b n
       | Batch (ns, k) ->
         Printf.bprintf b "batch %d (" k;
         List.iter (pp_node b) ns;
         Buffer.add_char b ')'
       | Update n -> Buffer.add_string b "update "; pp_node b n
       | Stop -> Buffer.add_string b "stop"
       | Crash -> Buffer.add_string b "crash"
       | Wait -> Buffer.add_string b "wait"
       | Release -> Buffer.add_string b "release");
      Buffer.add_char b ' ')
    ops;
  Buffer.add_char b ']'

let print_program p =
  let b = Buffer.create 256 in
  pp_node b p.root;
  let opt = function None -> "none" | Some n -> string_of_int n in
  Printf.bprintf b "\nguard delta_cap=%s steps=%s contain=%b; untils %s, %s"
    (opt p.guard.Kernel.max_delta_cycles) (opt p.guard.Kernel.max_steps)
    p.guard.Kernel.contain_crashes (opt (fst p.untils)) (opt (snd p.untils));
  Buffer.contents b

(* Ids are assigned in preorder once the tree is drawn.  Crashes are
   drawn only for evaluation-phase nodes (the only phase whose crashes
   a guard contains); the root schedules and never crashes. *)
let gen_program =
  let open QCheck.Gen in
  let scheduling child update_child =
    [ (3, map2 (fun d n -> After (d, n)) (int_bound 3) child);
      (1, map2 (fun d n -> At (d, n)) (int_bound 3) child);
      (2, map (fun n -> Now n) child);
      (3, map (fun n -> Next n) child);
      (1, map2 (fun ns k -> Batch (ns, k)) (list_size (int_range 1 3) child) (int_bound 3));
      (3, map (fun n -> Update n) update_child) ]
  in
  let shape =
    fix (fun self (depth, crash) ->
      let leaves =
        [ (1, return Stop); (1, return Wait); (1, return Release) ]
        @ if crash then [ (1, return Crash) ] else []
      in
      let ops =
        if depth = 0 then leaves
        else leaves @ scheduling (self (depth - 1, true)) (self (depth - 1, false))
      in
      map (fun ops -> { id = 0; ops }) (list_size (int_bound 3) (frequency ops)))
  in
  let root depth =
    map
      (fun ops -> { id = 0; ops })
      (list_size (int_range 1 5)
         (frequency (scheduling (shape (depth, true)) (shape (depth, false)))))
  in
  let rec number next { ops; _ } =
    let id = !next in
    incr next;
    let node n = number next n in
    let ops =
      List.map
        (function
          | After (d, n) -> After (d, node n)
          | At (d, n) -> At (d, node n)
          | Now n -> Now (node n)
          | Next n -> Next (node n)
          | Batch (ns, k) -> Batch (List.map node ns, min k (List.length ns))
          | Update n -> Update (node n)
          | (Stop | Crash | Wait | Release) as op -> op)
        ops
    in
    { id; ops }
  in
  let cap = oneof [ return None; map Option.some (int_bound 4); return (Some 1_000_000) ] in
  let horizon = opt (int_bound 12) in
  map4
    (fun root (max_delta_cycles, max_steps) contain_crashes untils ->
      { root = number (ref 0) root;
        guard = { Kernel.max_delta_cycles; max_steps; contain_crashes };
        untils })
    (int_range 0 3 >>= root)
    (pair cap (opt (int_bound 6)))
    bool (pair horizon horizon)

(* Run a program twice (the second run resumes whatever the first left,
   a [stop] included) and return the action log and each run's ending:
   final time or escaped exception, diagnosis and counters. *)
let execute (module S : SCHEDULER) program =
  let k = S.create () in
  let log = ref [] in
  let names = Hashtbl.create 16 in
  let name id =
    match Hashtbl.find_opt names id with
    | Some s -> s
    | None ->
      let s = "n" ^ string_of_int id in
      Hashtbl.add names id s;
      s
  in
  let rec perform = function
    | After (d, n) -> S.schedule_after k ~delay:d (action n)
    | At (d, n) -> S.schedule_at k ~time:(S.now k + d) (action n)
    | Now n -> S.schedule_now k (action n)
    | Next n -> S.schedule_next_delta k (action n)
    | Batch (ns, count) ->
      S.schedule_next_delta_batch k (Array.of_list (List.map action ns)) count
    | Update n -> S.request_update k (action n)
    | Stop -> S.stop k
    | Crash -> failwith "crash"
    | Wait -> S.add_waiter k
    | Release -> S.remove_waiter k
  and action n () =
    log := (n.id, S.now k, S.delta k) :: !log;
    S.set_label k (name n.id);
    List.iter perform n.ops
  in
  List.iter perform program.root.ops;
  let run until =
    let ending =
      match S.run ?until ~guard:program.guard k with
      | time -> Ok time
      | exception e -> Error (Printexc.to_string e)
    in
    (ending, S.last_diagnosis k, S.counters k)
  in
  let first = run (fst program.untils) in
  let second = run (snd program.untils) in
  (List.rev !log, first, second)

let reference_cases =
  [ Helpers.qtest ~count:600 "event order, counters and diagnosis match the reference"
      (QCheck.make ~print:print_program gen_program)
      (fun program ->
        execute (module Real) program = execute (module Reference) program) ]

(* --- what an event allocates ---------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A 10 ns clock, a posedge method process writing a bool and an int
   signal, and one static subscriber on the int's [changed]: the minor
   words of a run of [cycles] cycles, the design built outside the
   count. *)
let clocked_run_words cycles =
  let k = Kernel.create () in
  let clock = Clock.create k ~name:"clk" ~period:10 () in
  let flag = Signal.create_bool k ~name:"flag" false in
  let count = Signal.create_int k ~name:"count" 0 in
  Process.method_process k ~name:"p" ~sensitivity:[ Clock.posedge clock ] (fun () ->
    Signal.write flag (not (Signal.read flag));
    Signal.write count (Signal.read count + 1));
  let changes = ref 0 in
  Event.on_event (Signal.changed count) (fun () -> incr changes);
  let words = minor_words (fun () -> ignore (Kernel.run ~until:((10 * cycles) - 1) k)) in
  Alcotest.(check int) "cycles" cycles (Clock.cycle_count clock);
  Alcotest.(check int) "changes" (cycles + 1) !changes;
  words

(* The minor words of a thread that waits [waits] times. *)
let waiting_thread_words waits =
  let k = Kernel.create () in
  Process.spawn k ~name:"t" (fun () ->
    for _ = 1 to waits do
      Process.wait_ns k 10
    done);
  let words = minor_words (fun () -> ignore (Kernel.run k)) in
  Alcotest.(check int) "time" (10 * waits) (Kernel.now k);
  words

(* The minor words of a thread that waits on a 10 ns clock's negedge
   [waits] times, the clock built outside the count. *)
let event_waiting_thread_words waits =
  let k = Kernel.create () in
  let clock = Clock.create k ~name:"clk" ~period:10 () in
  let woken = ref 0 in
  Process.spawn k ~name:"t" (fun () ->
    for _ = 1 to waits do
      Process.wait_event (Clock.negedge clock);
      incr woken
    done);
  let words = minor_words (fun () -> ignore (Kernel.run ~until:(10 * waits) k)) in
  Alcotest.(check int) "woken" waits !woken;
  words

let allocation_cases =
  [ run_kernel_case "a clock edge, a write and an update allocate nothing" (fun () ->
      let extra = clocked_run_words 2_000 -. clocked_run_words 1_000 in
      Alcotest.(check (float 0.)) "minor words for 1,000 more cycles" 0. extra);
    run_kernel_case "a thread wait allocates at most 16 words" (fun () ->
      let per_wait = (waiting_thread_words 2_000 -. waiting_thread_words 1_000) /. 1_000. in
      if per_wait > 16. then Alcotest.failf "%.1f minor words per wait" per_wait);
    run_kernel_case "an event wait allocates no more than a timed wait" (fun () ->
      let per_wait words = (words 2_000 -. words 1_000) /. 1_000. in
      let timed = per_wait waiting_thread_words
      and on_event = per_wait event_waiting_thread_words in
      if on_event > timed then
        Alcotest.failf "%.1f minor words per event wait, %.1f per timed wait" on_event
          timed) ]

let suite =
  ( "kernel",
    scheduling_cases @ event_cases @ thread_cases @ watchdog_cases
    @ stress_cases @ reference_cases @ allocation_cases )
