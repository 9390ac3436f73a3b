(** Multicore verification-campaign runner.

    A {e campaign} is the paper's evaluation as a first-class object:
    a declarative job matrix (DUV x abstraction level x workload seed
    x property selection x transaction count) executed on a pluggable
    {!Executor} — either the historical pool of spawned OCaml
    [Domain]s, or a pool of crash-isolated worker subprocesses.  Each
    job runs a fresh simulation kernel and a fresh metrics registry
    end-to-end through {!Tabv_duv.Models.run}; a failing
    job is retried under a bounded policy and recorded as a
    crashed / killed / timed-out outcome, so one diverging job never
    kills the campaign.

    {2 Determinism}

    The merged results — and {!report_json} — are byte-identical
    regardless of worker count, executor kind, and journal resumes:
    {ul
    {- results are merged sorted by job id, never by completion
       order;}
    {- every job starts from a fresh checker universe
       ({!Tabv_checker.Progression.reset_universe}), so transition
       cache statistics depend only on the job, not on which worker
       (domain {e or} process) it landed on or what ran there before;}
    {- a job's contribution to the report is exactly its
       {!exec_payload}, which round-trips losslessly through the
       worker pipes and the write-ahead journal;}
    {- wall-clock measurements, the worker count, the executor kind
       and the replay count are reported by {!val-run} but
       deliberately excluded from {!report_json}, mirroring the
       metrics-registry rule that snapshots never contain wall-clock
       values.}}

    {2 Crash containment}

    Under {!Executor.In_domain}, containment is [try/with]: an
    exception becomes [Crashed], but aborts, unbounded allocation and
    non-yielding loops take the whole process down.  Under
    {!Executor.Subprocess} the OS is the boundary: any worker death is
    classified ([Killed] with the POSIX signal, [Crashed] on a clean
    exit, [Timed_out] when the wall-clock watchdog fired) and the
    campaign keeps running. *)

(** {1 Job model} *)

(** Which slice of the level's built-in property set to attach.
    [Take n] keeps the first [n] (the paper's 1-checker / 5-checker
    columns); [No_checkers] runs the bare testbench (the "w/out c."
    columns). *)
type selection =
  | All
  | Take of int
  | No_checkers

(** What an armed [chaos] attempt does.  [Chaos_raise] raises an
    ordinary exception — containable by any executor.  [Chaos_hard]
    executes a {!Tabv_fault.Fault.hard_failure} (abort / allocation
    storm / busy loop) that no in-process handler survives: it exists
    to prove, in tests, that only the subprocess executor contains
    what [try/with] provably cannot. *)
type chaos_kind =
  | Chaos_raise
  | Chaos_hard of Tabv_fault.Fault.hard_failure

type job = {
  duv : Tabv_duv.Models.duv;
  level : Tabv_duv.Models.level;
  seed : int;  (** workload seed *)
  ops : int;  (** workload size (operations / pixels) *)
  selection : selection;
  chaos : int;
      (** test/diagnostic hook: deterministically fail the first
          [chaos] attempts of this job (0 = never).  With
          [chaos <= retries] the job completes on a retry; with
          [chaos > retries] it fails — both paths are exercised by
          the test suite and stay deterministic. *)
  chaos_kind : chaos_kind;  (** how an armed attempt fails *)
}

(** [job ?selection ?chaos ?chaos_kind ~duv ~level ~seed ~ops ()] with
    [selection] defaulting to [All], [chaos] to [0] and [chaos_kind]
    to [Chaos_raise]. *)
val job :
  ?selection:selection ->
  ?chaos:int ->
  ?chaos_kind:chaos_kind ->
  duv:Tabv_duv.Models.duv ->
  level:Tabv_duv.Models.level ->
  seed:int ->
  ops:int ->
  unit ->
  job

val selection_name : selection -> string
val chaos_kind_name : chaos_kind -> string
val selection_of_name : string -> selection option

(** [Error reason] for combinations the catalog has no model for
    ({!Tabv_duv.Models.of_duv_level}: [Tlm_lt] on anything but DES56)
    and for out-of-range numbers. *)
val validate : job -> (unit, string) result

(** Deterministic matrix expansion: DUV-major, then level, then seed
    order; invalid combinations ([Tlm_lt] off DES56) are skipped, so a
    matrix may name [Tlm_lt] once and only DES56 picks it up. *)
val expand_matrix :
  ?selection:selection ->
  duvs:Tabv_duv.Models.duv list ->
  levels:Tabv_duv.Models.level list ->
  seeds:int list ->
  ops:int ->
  unit ->
  job list

(** {1 Manifests} *)

type manifest = {
  manifest_jobs : job list;
  manifest_retries : int option;  (** overridden by [run ~retries] *)
}

(** Parse a campaign manifest document:
    {v
    { "retries": 1,
      "jobs":   [ {"duv":"des56","level":"rtl","seed":1,"ops":40,
                   "props":"all"} ],
      "matrix": { "duvs":   ["des56","colorconv"],
                  "levels": ["rtl","tlm-ca","tlm-at"],
                  "seeds":  [1,2],
                  "ops":    40,
                  "props":  "all" } }
    v}
    Explicit ["jobs"] come first, then the expanded ["matrix"] (both
    optional, at least one required).  ["props"] is ["all"], ["none"]
    or an integer [n] (= take the first [n]); jobs additionally accept
    ["chaos": k] and ["chaos_kind": "raise" | "abort" | "alloc_storm"
    | "busy_loop"].  Unknown keys are rejected. *)
val manifest_of_json : Tabv_core.Report_json.json -> (manifest, string) result

(** {1 The worker op} *)

(** The deterministic product of one completed job — exactly what the
    report is built from, and therefore exactly what crosses a worker
    pipe and lands in the write-ahead journal. *)
type exec_payload

(** One attempt of one job: resets the checker universe, arms the
    chaos hook ([attempt <= chaos]), runs the model.  Raises on
    [Chaos_raise] chaos; {e does not return} on armed [Chaos_hard]
    chaos.  Its spec travels in canonical manifest form (keys [duv] /
    [level] / [seed] / [ops] / [props] / [chaos], plus [chaos_kind]
    when not [raise]) — the unit journal fingerprints are built from
    too. *)
val op : (job, exec_payload) Executor.op

(** {1 Journals} *)

(** The {!Journal.open_} [~kind] campaign journals use. *)
val journal_kind : string

(** Journal fingerprint of a job list under a retry budget: a digest
    of the canonical spec JSON, so a journal can only ever resume the
    exact campaign that wrote it. *)
val fingerprint : retries:int -> job list -> string

(** {1 Admission} *)

(** A campaign ready to run: its jobs, its retry budget and the journal
    fingerprint of both. *)
type admitted = {
  jobs : job list;
  retries : int;
  fingerprint : string;  (** {!fingerprint} [~retries jobs] *)
}

(** [admit ~retries manifest] — the admission policy of a campaign,
    shared by [tabv campaign] and the serve daemon: the manifest must
    hold at least one job and every job must {!validate} (the first
    refusal is returned).  The retry budget is [retries] (the flag or
    request), else the manifest's, else 1. *)
val admit : retries:int option -> manifest -> (admitted, string) result

(** {1 Running} *)

type outcome =
  | Completed
  | Crashed of { error : string }  (** last attempt's exception *)
  | Killed of { signal : int }
      (** worker terminated by [signal] (POSIX numbering) — subprocess
          executor only *)
  | Timed_out  (** per-job wall-clock watchdog — subprocess only *)

type job_result = {
  job_id : int;  (** index in the submitted job list *)
  job : job;
  outcome : outcome;
  attempts : int;  (** 1 = first attempt succeeded *)
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;
  completed_ops : int;
  failures : int;  (** property failures (0 when not completed) *)
  checker_stats : Tabv_obs.Checker_snapshot.t list;
  metrics : Tabv_obs.Metrics.snapshot;
  diagnosis : Tabv_sim.Kernel.diagnosis;
      (** how the job's simulation ended; a synthetic
          [Process_crashed] when the job itself failed *)
}

type summary = {
  results : job_result list;  (** ascending [job_id]; pending jobs absent *)
  workers : int;
  retries : int;
  completed : int;
  crashed : int;
  killed : int;  (** subprocess executor only *)
  timed_out : int;  (** subprocess executor only *)
  replayed : int;  (** results taken from the journal, not re-run *)
  pending : int;  (** jobs not run because the campaign was interrupted *)
  total_failures : int;
  total_sim_time_ns : int;
  total_activations : int;
  total_delta_cycles : int;
  total_transactions : int;
  total_completed_ops : int;
  checker_activations : int;
  checker_passes : int;
  checker_cache_hits : int;
  checker_cache_misses : int;
  failures_by_property : (string * int) list;
      (** properties with at least one failure, sorted by name *)
  merged_metrics : Tabv_obs.Metrics.snapshot;
      (** {!Tabv_obs.Metrics.merge_all} of the per-job snapshots *)
  wall_seconds : float;  (** excluded from JSON *)
}

(** [run ?workers ?retries ?clock ?exec ?journal ?interrupted jobs]
    executes the campaign on [workers] workers (default 1) with up to
    [retries] retries per failing job (default 1).

    [clock] (seconds, default [fun () -> 0.]) feeds only the summary's
    wall time; pass [Unix.gettimeofday] from binaries that link [unix].
    Every job runs with a fresh enabled metrics registry.

    [exec] selects the executor (default
    [Executor.config Executor.In_domain]); see {!Executor} for the
    subprocess pool and its watchdog.

    [journal] must have been opened with {!journal_kind} and
    {!fingerprint} over exactly [jobs] and [retries]; {!Executor.run}
    replays its records in place of their jobs and appends every newly
    completed one.  A fresh-vs-resumed pair of runs produces
    byte-identical {!report_json}.

    [interrupted] is polled during execution; once it returns [true],
    no further job starts (subprocess workers are killed), completed
    results keep their journal records, and unstarted jobs are
    reported as [pending].

    @raise Invalid_argument if any job fails {!validate}, on a
    negative retry budget or on fewer than one worker.
    @raise Executor.Bad_record on an undecodable journal record. *)
val run :
  ?workers:int ->
  ?retries:int ->
  ?clock:(unit -> float) ->
  ?exec:Executor.config ->
  ?journal:Journal.t ->
  ?interrupted:(unit -> bool) ->
  job list ->
  summary

(** True iff no property failed, no job crashed / was killed / timed
    out, and nothing is pending (the CLI's exit criterion). *)
val all_green : summary -> bool

(** The deterministic campaign report: schema-versioned, sorted by job
    id, free of wall-clock values, of the worker count, of the
    executor kind and of replay provenance — running the same job list
    with any [?workers], either executor, or across an
    interrupt/resume yields byte-identical output. *)
val report_json : summary -> Tabv_core.Report_json.json

(** Human-oriented per-job table and aggregate roll-up (includes wall
    times and replay/pending counts — not deterministic). *)
val pp_summary : Format.formatter -> summary -> unit
