(* Pluggable campaign executors.  See executor.mli for the contract.

   A batch is one worker op and a list of its specs.  The journal is
   replayed into the result slots first; the remaining tasks run on
   one of two pools, and each completed one is journaled as it lands.

   The in-domain pool is an atomic queue index over the tasks to run,
   one result slot per task, every attempt wrapped in [try/with].

   The subprocess pool is a single-threaded coordinator around
   [Unix.select]: each worker is a forked re-execution of the current
   binary speaking the {!Tabv_core.Frame} protocol over its stdin/stdout,
   with exactly one outstanding request at a time.  Death of any kind
   — crash, abort, OOM kill, watchdog SIGKILL — surfaces as EOF on the
   worker's pipe plus a [waitpid] status, so containment is the OS's,
   not [try/with]'s. *)

module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame

type kind =
  | In_domain
  | Subprocess

type config = {
  c_kind : kind;
  job_timeout_s : float option;
}

let config ?job_timeout_s kind =
  (match job_timeout_s with
   | Some t when t <= 0. ->
     invalid_arg "Executor.config: job_timeout_s must be positive"
   | _ -> ());
  { c_kind = kind; job_timeout_s }

let kind_of c = c.c_kind

let workers ~cap = function
  | Some w when w >= 1 -> Ok w
  | Some w -> Error (Printf.sprintf "--workers must be >= 1 (got %d)" w)
  | None -> Ok (min (Domain.recommended_domain_count ()) cap)

type failure =
  | Crashed of { error : string }
  | Killed of { signal : int }
  | Timed_out

let failure_to_string = function
  | Crashed { error } -> "crashed: " ^ error
  | Killed { signal } -> Printf.sprintf "killed by signal %d" signal
  | Timed_out -> "wall-clock watchdog expired"

(* --- worker ops ------------------------------------------------------ *)

type 'a codec = {
  to_json : 'a -> J.json;
  of_json : J.json -> ('a, string) result;
}

type ('spec, 'result) op = {
  name : string;
  spec : 'spec codec;
  run : 'spec -> attempt:int -> 'result;
  result : 'result codec;
}

type any_op = Op : ('spec, 'result) op -> any_op

type 'a outcome =
  | Done of 'a
  | Failed of failure

type 'a task_result = {
  attempts : int;
  outcome : 'a outcome;
  replayed : bool;
}

(* --- in-domain pool -------------------------------------------------- *)

(* [todo] holds the indices of the tasks to run; [finish] records each
   terminal result (from whichever domain reached it). *)
let run_in_domain ~workers ~retries ~interrupted op specs todo finish =
  let next = Atomic.make 0 in
  (* Workers are always spawned domains (even for [workers = 1]) so
     the caller's interning universe is never touched by execution;
     at most one per task to run, as the subprocess pool spawns. *)
  let worker () =
    let rec loop () =
      if not (interrupted ()) then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length todo then begin
          let i = todo.(k) in
          let rec attempt_loop attempt =
            match op.run specs.(i) ~attempt with
            | v -> { attempts = attempt; outcome = Done v; replayed = false }
            | exception e ->
              let error = Printexc.to_string e in
              if attempt > retries then
                { attempts = attempt; outcome = Failed (Crashed { error });
                  replayed = false }
              else attempt_loop (attempt + 1)
          in
          finish i (attempt_loop 1);
          loop ()
        end
      end
    in
    loop ()
  in
  let domains =
    List.init (min workers (Array.length todo)) (fun _ -> Domain.spawn worker)
  in
  List.iter Domain.join domains

(* --- worker processes ------------------------------------------------ *)

(* OCaml's [Sys.sig*] values are an internal negative encoding; worker
   death is reported with POSIX numbers so reports and logs mean the
   same thing everywhere. *)
let posix_signal n =
  if n > 0 then n
  else if n = Sys.sighup then 1
  else if n = Sys.sigint then 2
  else if n = Sys.sigquit then 3
  else if n = Sys.sigill then 4
  else if n = Sys.sigtrap then 5
  else if n = Sys.sigabrt then 6
  else if n = Sys.sigbus then 7
  else if n = Sys.sigfpe then 8
  else if n = Sys.sigkill then 9
  else if n = Sys.sigusr1 then 10
  else if n = Sys.sigsegv then 11
  else if n = Sys.sigusr2 then 12
  else if n = Sys.sigpipe then 13
  else if n = Sys.sigalrm then 14
  else if n = Sys.sigterm then 15
  else if n = Sys.sigchld then 17
  else if n = Sys.sigcont then 18
  else if n = Sys.sigstop then 19
  else if n = Sys.sigtstp then 20
  else if n = Sys.sigttin then 21
  else if n = Sys.sigttou then 22
  else if n = Sys.sigurg then 23
  else if n = Sys.sigxcpu then 24
  else if n = Sys.sigxfsz then 25
  else if n = Sys.sigvtalrm then 26
  else if n = Sys.sigprof then 27
  else if n = Sys.sigpoll then 29
  else if n = Sys.sigsys then 31
  else -n

type process = {
  pid : int;
  to_worker : Unix.file_descr;
  from_worker : Unix.file_descr;
  replies : Frame.stream;  (* reassembly of the reply frames *)
}

(* Both ends of a worker pipe are this binary, so the version only
   has to name the envelope format. *)
let frame_version = 1

let spawn () =
  let argv = [| Sys.executable_name; "_worker" |] in
  (* Both pipes are close-on-exec from creation: [create_process] dup2s
     the child's ends onto fds 0/1 (which clears the flag on the
     copies), so the worker inherits nothing else — in particular not
     the write end of {e its own} stdin pipe (which would swallow the
     EOF that tells it to shut down) and not another worker's ends
     (which would postpone the EOF that signals that worker's
     death). *)
  let req_read, req_write = Unix.pipe ~cloexec:true () in
  let rsp_read, rsp_write = Unix.pipe ~cloexec:true () in
  let pid =
    try Unix.create_process argv.(0) argv req_read rsp_write Unix.stderr
    with e ->
      Unix.close req_read; Unix.close req_write;
      Unix.close rsp_read; Unix.close rsp_write;
      raise e
  in
  Unix.close req_read;
  Unix.close rsp_write;
  (* A coordinator never blocks on a reply: a descriptor it looks up
     after another worker's pipe was closed and reused may have
     nothing to read yet. *)
  Unix.set_nonblock rsp_read;
  { pid; to_worker = req_write; from_worker = rsp_read;
    replies = Frame.stream ~expect_version:frame_version () }

let reply_fd p = p.from_worker

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A worker that already exited keeps its own status: SIGKILL does not
   change a zombie's, and after a SIGKILL the zombie is immediate. *)
let kill p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_noerr p.to_worker;
  close_noerr p.from_worker;
  let status =
    match Unix.waitpid [] p.pid with
    | _, status -> status
    | exception Unix.Unix_error _ -> Unix.WEXITED 127
  in
  match status with
  | Unix.WSIGNALED sg -> Killed { signal = posix_signal sg }
  | Unix.WEXITED code ->
    Crashed
      { error = Printf.sprintf "worker exited with code %d before replying" code }
  | Unix.WSTOPPED sg ->
    Crashed
      { error = Printf.sprintf "worker stopped by signal %d" (posix_signal sg) }

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
    end
  in
  go 0

let send p op ~attempt spec =
  let envelope =
    J.Assoc
      [ ("op", J.String op.name);
        ("attempt", J.Int attempt);
        ("spec", op.spec.to_json spec) ]
  in
  (* A worker that died since its last reply fails the write (EPIPE,
     with SIGPIPE ignored); its EOF on the reply pipe reports the
     death. *)
  try write_all p.to_worker (Frame.encode ~version:frame_version (J.to_string envelope))
  with Unix.Unix_error _ -> ()

type 'a reply =
  | Replied of 'a
  | Refused of string
  | Lost of failure

let read_reply p op =
  (* A worker that breaks the protocol has nothing trustworthy left to
     say: it is killed, and the failure names the break. *)
  let broken what =
    ignore (kill p);
    Some (Lost (Crashed { error = "worker protocol error: " ^ what }))
  in
  let buf = Bytes.create 65536 in
  match Unix.read p.from_worker buf 0 (Bytes.length buf) with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    None
  | 0 | (exception Unix.Unix_error _) -> Some (Lost (kill p))
  | n ->
    Frame.feed p.replies (Bytes.sub_string buf 0 n);
    (match Frame.pop p.replies with
     | exception Frame.Protocol_error _ -> broken "bad frame"
     | None -> None
     | Some _ when Frame.stream_length p.replies > 0 ->
       (* One request in flight, one reply: more is a broken worker. *)
       broken "bytes after the reply"
     | Some frame ->
       (match J.of_string frame with
        | exception J.Parse_error _ -> broken "unparsable reply"
        | json ->
          (match (J.member "ok" json, J.member "error" json) with
           | Some payload, _ ->
             (match op.result.of_json payload with
              | Ok v -> Some (Replied v)
              | Error what -> broken what)
           | None, Some (J.String error) -> Some (Refused error)
           | None, _ -> broken "reply without ok/error")))

(* --- subprocess pool ------------------------------------------------- *)

type worker_state = {
  mutable proc : process;
  mutable current : (int * int) option;  (* (task, attempt) in flight *)
  mutable deadline : float;  (* watchdog expiry; [infinity] when idle *)
  mutable alive : bool;
}

let spawn_worker () =
  { proc = spawn (); current = None; deadline = infinity; alive = true }

let respawn w =
  w.proc <- spawn ();
  w.current <- None;
  w.deadline <- infinity;
  w.alive <- true

let run_subprocess config ~workers ~retries ~interrupted op specs todo finish =
  if Array.length todo > 0 then begin
    let prev_sigpipe =
      (* A worker dying between our [select] and our request write
         must surface as a failed attempt, not kill the campaign. *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    (* Pending work: (task, attempt).  Failed attempts re-enter here;
       order never affects results. *)
    let pending = ref (List.map (fun i -> (i, 1)) (Array.to_list todo)) in
    let remaining = ref (Array.length todo) in
    let pool = Array.init (min workers !remaining) (fun _ -> spawn_worker ()) in
    let complete task attempts outcome =
      finish task { attempts; outcome; replayed = false };
      decr remaining
    in
    let fail_attempt task attempt failure =
      if attempt > retries then complete task attempt (Failed failure)
      else pending := (task, attempt + 1) :: !pending
    in
    (* A worker whose process is gone: start its replacement while work
       remains. *)
    let replace w =
      w.alive <- false;
      if !remaining > 0 then respawn w
    in
    let start w task attempt =
      w.current <- Some (task, attempt);
      w.deadline <-
        (match config.job_timeout_s with
         | None -> infinity
         | Some t -> Unix.gettimeofday () +. t);
      send w.proc op ~attempt specs.(task)
    in
    (* Pop the pending task with the lowest index (stable, debuggable
       order; results don't depend on it). *)
    let pop () =
      match List.sort compare !pending with
      | [] -> None
      | chosen :: rest ->
        pending := rest;
        Some chosen
    in
    let assign () =
      Array.iter
        (fun w ->
          if w.alive && w.current = None then
            match pop () with
            | Some (task, attempt) -> start w task attempt
            | None -> ())
        pool
    in
    let abort_all () =
      Array.iter (fun w -> if w.alive then begin
        w.alive <- false;
        ignore (kill w.proc)
      end) pool
    in
    let shutdown () =
      (* Closing a worker's stdin makes its serve loop see EOF and
         exit cleanly; then reap. *)
      Array.iter (fun w -> if w.alive then close_noerr w.proc.to_worker) pool;
      Array.iter (fun w -> if w.alive then begin
        w.alive <- false;
        close_noerr w.proc.from_worker;
        (try ignore (Unix.waitpid [] w.proc.pid) with Unix.Unix_error _ -> ())
      end) pool
    in
    let rec loop () =
      if interrupted () then abort_all ()
      else if !remaining = 0 then shutdown ()
      else begin
        assign ();
        let now = Unix.gettimeofday () in
        (* Watchdogs: SIGKILL any worker past its deadline. *)
        Array.iter
          (fun w ->
            if w.alive && w.deadline <= now then begin
              (match w.current with
               | Some (task, attempt) ->
                 w.current <- None;
                 fail_attempt task attempt Timed_out
               | None -> ());
              ignore (kill w.proc);
              replace w
            end)
          pool;
        let busy_fds =
          Array.to_list pool
          |> List.filter_map (fun w ->
                 if w.alive && w.current <> None then Some w.proc.from_worker
                 else None)
        in
        let timeout =
          let next_deadline =
            Array.fold_left
              (fun acc w -> if w.alive then min acc w.deadline else acc)
              infinity pool
          in
          if next_deadline = infinity then 0.2
          else Float.max 0. (Float.min 0.2 (next_deadline -. now))
        in
        let readable =
          (* Nothing in flight means a watchdog just re-queued its
             attempt: the next pass assigns it. *)
          if busy_fds = [] then []
          else
            match Unix.select busy_fds [] [] timeout with
            | readable, _, _ -> readable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match
              Array.to_list pool
              |> List.find_opt (fun w -> w.alive && w.proc.from_worker == fd)
            with
            | Some ({ current = Some (task, attempt); _ } as w) ->
              (match read_reply w.proc op with
               | None -> ()
               | Some reply ->
                 w.current <- None;
                 w.deadline <- infinity;
                 (match reply with
                  | Replied v -> complete task attempt (Done v)
                  | Refused error -> fail_attempt task attempt (Crashed { error })
                  | Lost failure ->
                    fail_attempt task attempt failure;
                    replace w))
            | _ -> ())
          readable;
        loop ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        (match prev_sigpipe with
         | Some behavior -> (try Sys.set_signal Sys.sigpipe behavior with Invalid_argument _ -> ())
         | None -> ());
        (* Never leak workers, whatever happened above. *)
        Array.iter (fun w -> if w.alive then begin
          w.alive <- false;
          ignore (kill w.proc)
        end) pool)
      loop
  end

(* --- batches ---------------------------------------------------------- *)

exception Bad_record of string

let ( let* ) = Result.bind

(* A journal record is [{"attempts":n,"payload":result}]. *)
let record_json op ~attempts v =
  J.Assoc [ ("attempts", J.Int attempts); ("payload", op.result.to_json v) ]

let replayed_result op id record =
  let what = Printf.sprintf "journal record %d" id in
  let* fields = J.open_assoc what record in
  let* attempts = J.int_field what "attempts" fields in
  let* payload = J.field what "payload" fields in
  match op.result.of_json payload with
  | Ok v -> Ok { attempts; outcome = Done v; replayed = true }
  | Error e -> Error (what ^ ": " ^ e)

let run config ~workers ~retries ?(interrupted = fun () -> false) ?journal op
    specs =
  if retries < 0 then invalid_arg "Executor.run: retries must be >= 0";
  if workers < 1 then invalid_arg "Executor.run: workers must be >= 1";
  let specs = Array.of_list specs in
  let slots = Array.make (Array.length specs) None in
  Option.iter
    (fun journal ->
      List.iter
        (fun (id, record) ->
          if id < Array.length specs then
            match replayed_result op id record with
            | Ok r -> slots.(id) <- Some r
            | Error e -> raise (Bad_record e))
        (Journal.replayed journal))
    journal;
  let todo =
    Array.of_list
      (List.filter (fun i -> Option.is_none slots.(i))
         (List.init (Array.length specs) Fun.id))
  in
  (* Called once per task as it reaches a terminal result, in
     completion order — from worker domains in-domain ([Journal.append]
     serializes). *)
  let finish i r =
    (match (journal, r.outcome) with
     | Some journal, Done v ->
       Journal.append journal ~id:i (record_json op ~attempts:r.attempts v)
     | _ -> ());
    slots.(i) <- Some r
  in
  (match config.c_kind with
   | In_domain -> run_in_domain ~workers ~retries ~interrupted op specs todo finish
   | Subprocess ->
     run_subprocess config ~workers ~retries ~interrupted op specs todo finish);
  slots
