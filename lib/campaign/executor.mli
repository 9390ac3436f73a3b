(** Pluggable campaign executors: where batch tasks physically run.

    Every batch kind ({!Campaign}, {!Qualify}, {!Recheck}, the serve
    daemon's requests) declares one worker {!op} beside the code it
    runs, and hands a list of that op's specs to one of two executors:

    {ul
    {- {!In_domain} — a pool of spawned OCaml [Domain]s calling the
       op's [run] directly (no JSON on this path).  Cheap, but an
       attempt is contained only as far as [try/with] reaches: a
       segfault, an abort, unbounded allocation or a non-yielding busy
       loop takes the whole process with it.}
    {- {!Subprocess} — a pool of forked OS worker processes (the
       binary re-executes itself with a hidden [_worker] argv hook,
       {!Worker.main}) exchanging one request envelope and one reply
       per task as length-prefixed JSON frames over pipes
       ({!Tabv_core.Frame}).  The OS is the containment boundary: a
       worker death of {e any} kind is observed as EOF + [waitpid]
       status, classified as {!Killed} / {!Crashed}, and the worker is
       respawned.  A per-task wall-clock watchdog SIGKILLs workers that
       exceed [job_timeout_s] ({!Timed_out}).}}

    Failed attempts are retried at once, up to [retries] times.  Task
    {e results} stay deterministic either way: what executes, how
    often it is attempted on a deterministic failure, and everything a
    task returns are pure functions of the spec.  A journal makes a
    batch resumable the same way for every op: see {!run}.

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

(** {1 Worker ops} *)

(** A value's JSON codec: [of_json (to_json v)] is [Ok v]. *)
type 'a codec = {
  to_json : 'a -> Tabv_core.Report_json.json;
  of_json : Tabv_core.Report_json.json -> ('a, string) result;
}

(** One batch kind, declared once beside the code it runs.  [run] must
    be a pure function of the spec and [attempt] (raising on failure):
    that is the determinism contract that makes retries, executors and
    resumes invisible in reports.  The codecs carry a spec to a worker
    process and a result back, and a result into the journal. *)
type ('spec, 'result) op = {
  name : string;  (** the envelope's ["op"]; unique per binary *)
  spec : 'spec codec;
  run : 'spec -> attempt:int -> 'result;
  result : 'result codec;
}

(** An op of any spec and result type: what a worker serves. *)
type any_op = Op : ('spec, 'result) op -> any_op

(** {1 Worker processes}

    The process code of the {!Subprocess} pool, shared with the serve
    daemon's subprocess workers. *)

(** The frame version of the worker pipes. *)
val frame_version : int

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

(** [send p op ~attempt spec] — send one request envelope
    [{"op":name,"attempt":n,"spec":..}].  A worker that died fails the
    write quietly: its EOF on {!reply_fd} reports the death. *)
val send : process -> ('spec, 'result) op -> attempt:int -> 'spec -> unit

(** SIGKILL the process, close our pipe ends and wait for it.  Returns
    how it died: {!Killed} with the POSIX signal number, or {!Crashed}
    naming the exit code (a worker that had already exited keeps its
    own status). *)
val kill : process -> failure

(** The reply to the one request in flight. *)
type 'a reply =
  | Replied of 'a  (** [{"ok":result}], decoded *)
  | Refused of string
      (** [{"error":message}]: the task failed; the worker is sound *)
  | Lost of failure
      (** the worker died, or broke the frame protocol (a bad frame,
          an unparsable or undecodable reply, bytes after the reply)
          and was killed; either way it has been reaped *)

(** [read_reply p op] — [p]'s reply pipe turned readable: read it, and
    return the reply once its frame is complete ([None] until then),
    decoding an [ok] result with [op]'s result codec. *)
val read_reply : process -> ('spec, 'result) op -> 'result reply option

(** {1 Running a batch} *)

type 'a outcome =
  | Done of 'a
  | Failed of failure

type 'a task_result = {
  attempts : int;
      (** attempts actually made; on [Done] the succeeding attempt's
          number, on [Failed] [retries + 1]; for a replayed task, the
          attempts its journal record names *)
  outcome : 'a outcome;
  replayed : bool;  (** read back from the journal, not run *)
}

(** Raised by {!run}, before any task runs, for a journal record whose
    CRC is sound but whose body the op cannot decode: that is
    corruption, not a torn append, and re-running around it would hide
    it.  The message names the record: ["journal record 3: ..."]. *)
exception Bad_record of string

(** [run config ~workers ~retries ?interrupted ?journal op specs] runs
    one task per spec on at most [workers] workers, never more than
    there are tasks to run, and returns one slot per spec.

    With [journal] (opened with the fingerprint of exactly these specs
    and retries), its records are replayed first: each
    [{"attempts":n,"payload":result}] record fills its task's slot
    ([replayed = true]) and that task never runs.  Every task that
    completes afterwards is durably appended in the same form before
    its slot counts as done.

    A slot is [None] for a task not run because [interrupted ()]
    turned true (polled between tasks in-domain, continuously in the
    subprocess select loop; on interrupt, subprocess workers are
    SIGKILLed and in-flight tasks also land [None]).
    @raise Bad_record on an undecodable journal record.
    @raise Invalid_argument when [retries < 0] or [workers < 1]. *)
val run :
  config ->
  workers:int ->
  retries:int ->
  ?interrupted:(unit -> bool) ->
  ?journal:Journal.t ->
  ('spec, 'result) op ->
  'spec list ->
  'result task_result option array
