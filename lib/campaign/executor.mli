(** Pluggable campaign executors: where jobs physically run.

    Both campaign flavours ({!Campaign}, {!Qualify}) describe their
    work as an indexed array of deterministic tasks and hand it to one
    of two executors:

    {ul
    {- {!In_domain} — the historical pool of spawned OCaml [Domain]s.
       Cheap, but an attempt is contained only as far as [try/with]
       reaches: a segfault, an abort, unbounded allocation or a
       non-yielding busy loop takes the whole campaign process with
       it.}
    {- {!Subprocess} — a pool of forked OS worker processes (the
       binary re-executes itself with a hidden [_worker] argv hook)
       exchanging requests and replies as length-prefixed JSON frames
       over pipes ({!Tabv_core.Frame}).  The OS is the containment
       boundary: a worker death of {e any} kind is observed as EOF +
       [waitpid] status, classified as {!Killed} / {!Crashed}, and the
       worker is respawned.  A per-task wall-clock watchdog SIGKILLs
       workers that exceed [job_timeout_s] ({!Timed_out}).}}

    Failed attempts are retried at once, up to [retries] times.  Task
    {e results} stay deterministic either way: what executes, how
    often it is attempted on a deterministic failure, and everything a
    task returns are pure functions of the task.

    The executor reports how each task ended; turning failures into
    report rows (and keeping wall-clock metadata out of them) is the
    caller's business. *)

type kind =
  | In_domain
  | Subprocess

type config

(** [config ?job_timeout_s kind].

    [job_timeout_s] — per-attempt wall-clock watchdog ({!Subprocess}
    only; ignored in-domain where a stuck domain cannot be killed). *)
val config : ?job_timeout_s:float -> kind -> config

val kind_of : config -> kind

(** [workers ~cap w] — the worker count a [--workers] flag asks for:
    [w] when at least 1, and by default the recommended domain count
    capped by the [cap] work items.  [Error] for a count below 1. *)
val workers : cap:int -> int option -> (int, string) result

(** How a task ultimately failed (after all retries). *)
type failure =
  | Crashed of { error : string }
      (** an exception ({!In_domain}) or a worker [{"error":..}] reply
          / clean worker exit before replying ({!Subprocess}) *)
  | Killed of { signal : int }
      (** worker terminated by [signal] (POSIX numbering) —
          {!Subprocess} only *)
  | Timed_out  (** wall-clock watchdog expired — {!Subprocess} only *)

val failure_to_string : failure -> string

(** {1 Worker processes}

    The process code of the {!Subprocess} pool, shared with the serve
    daemon's subprocess workers. *)

(** A live worker process: this binary re-executed with the hidden
    [_worker] argv hook, a request pipe to its stdin and a reply pipe
    from its stdout. *)
type process

(** [spawn ()] starts a worker.  Both pipes are close-on-exec from
    creation, so a worker inherits no other worker's pipe ends. *)
val spawn : unit -> process

(** The non-blocking descriptor its replies arrive on.  EOF there
    means the worker died. *)
val reply_fd : process -> Unix.file_descr

(** Send one request frame.  A worker that died fails the write
    quietly: its EOF on {!reply_fd} reports the death. *)
val send : process -> Tabv_core.Report_json.json -> unit

(** SIGKILL the process, close our pipe ends and wait for it.  Returns
    how it died: {!Killed} with the POSIX signal number, or {!Crashed}
    naming the exit code (a worker that had already exited keeps its
    own status). *)
val kill : process -> failure

(** The reply to the one request in flight. *)
type 'a reply =
  | Replied of 'a  (** [{"ok":payload}], decoded *)
  | Refused of string
      (** [{"error":message}]: the job failed; the worker is sound *)
  | Lost of failure
      (** the worker died, or broke the frame protocol (a bad frame,
          an unparsable or undecodable reply, bytes after the reply)
          and was killed; either way it has been reaped *)

(** [read_reply p ~decode] — [p]'s reply pipe turned readable: read it,
    and return the reply once its frame is complete ([None] until
    then), decoding an [ok] payload with [decode]. *)
val read_reply :
  process ->
  decode:(Tabv_core.Report_json.json -> ('a, string) result) ->
  'a reply option

type 'a outcome =
  | Done of 'a
  | Failed of failure

type 'a task_result = {
  attempts : int;
      (** attempts actually made; on [Done] the succeeding attempt's
          number, on [Failed] [retries + 1] *)
  outcome : 'a outcome;
}

(** One campaign's work, as the executor sees it.  All callbacks must
    be pure functions of the task index (plus [attempt]) — that is the
    determinism contract that makes retries and resumes invisible in
    reports. *)
type 'a tasks = {
  count : int;
  skip : int -> bool;
      (** journaled tasks to leave untouched (slot stays [None]) *)
  execute : int -> attempt:int -> 'a;
      (** {!In_domain}: run the task, raising on failure *)
  request : int -> attempt:int -> Tabv_core.Report_json.json;
      (** {!Subprocess}: the request document shipped to a worker *)
  decode : int -> Tabv_core.Report_json.json -> ('a, string) result;
      (** {!Subprocess}: decode a worker's [ok] reply payload *)
  on_result : int -> 'a task_result -> unit;
      (** fired once per task as it reaches a terminal result, in
          completion order (journal appends live here); may be called
          concurrently from worker domains under {!In_domain} *)
}

(** [run config ~workers ~retries ?interrupted tasks] executes every
    non-skipped task on at most [workers] workers, never more than
    there are such tasks, and returns one slot per task — [None] for
    skipped tasks and for tasks not run because [interrupted ()]
    turned true (polled between jobs in-domain, continuously in the
    subprocess select loop; on interrupt, subprocess workers are
    SIGKILLed and in-flight tasks also land [None]).
    @raise Invalid_argument when [retries < 0] or [workers < 1]. *)
val run :
  config ->
  workers:int ->
  retries:int ->
  ?interrupted:(unit -> bool) ->
  'a tasks ->
  'a task_result option array
