(** Fault-qualification campaigns: the detection matrix.

    A qualification run asks, for one DUV, whether each property suite
    still {e detects} the catalog's conceptual design bugs
    ({!Tabv_duv.Duv_fault}) after RTL-to-TLM abstraction.  Per
    requested level it runs one clean baseline plus one faulted run
    per applicable catalog fault (all jobs on a {!Campaign}-style
    domain pool), attributes per-property verdicts with
    {!Tabv_checker.Detect}, and folds everything into one
    deterministic report:

    {ul
    {- the {b detection matrix} — fault x property ->
       detected / missed / latent, per level;}
    {- per-level {b fault coverage} — detected / (applicable - latent);}
    {- {b cross-level regressions} — faults detected by the RTL suite
       whose TLM-CA carrier exists but whose TLM-CA suite misses them
       (the paper's re-use claim, falsifiable);}
    {- {b resilience scenarios} — seeded crash / livelock / deadlock
       injections, each required to terminate with the matching
       structured {!Tabv_sim.Kernel.diagnosis}.}}

    Reports are byte-identical for any worker count, either
    {!Executor} kind, and across journal interrupt/resume cycles: jobs
    land in slots indexed by position, every job starts from a fresh
    checker universe, each result round-trips losslessly through the
    worker pipes and the write-ahead journal, and all watchdog caps
    are fixed. *)

(** The guard every qualification job runs under: delta-cap 10k (so a
    livelock diagnosis is worker-independent), crash containment on. *)
val job_guard : Tabv_sim.Kernel.guard

(** {1 Report model} *)

type fault_outcome =
  | No_carrier
      (** the fault's carrier was abstracted away at this level *)
  | Qualified of {
      plan : Tabv_fault.Fault.plan;
      triggered : int;
      diagnosis : Tabv_sim.Kernel.diagnosis;
      verdicts : Tabv_checker.Detect.property_verdict list;
      verdict : Tabv_checker.Detect.verdict;  (** suite verdict *)
    }

type fault_row = {
  fault : string;
  outcome : fault_outcome;
}

type level_report = {
  level : Tabv_duv.Models.level;
  baseline_failures : int;
  baseline_diagnosis : Tabv_sim.Kernel.diagnosis;
  rows : fault_row list;  (** catalog order *)
  detected : int;
  missed : int;
  latent : int;
  applicable : int;  (** rows with a carrier *)
  coverage : float;  (** detected / (applicable - latent); 1.0 if none *)
}

type scenario = {
  scenario : string;  (** "crash" | "livelock" | "deadlock" *)
  scenario_level : Tabv_duv.Models.level;
  expected : string;  (** diagnosis kind *)
  diagnosis : Tabv_sim.Kernel.diagnosis;
  matched : bool;
}

type report = {
  duv : Tabv_duv.Models.duv;
  seed : int;
  ops : int;
  levels : level_report list;  (** in requested order *)
  resilience : scenario list;
  regressions : string list;
      (** faults detected at RTL, carried but missed at TLM-CA *)
}

(** {1 The worker op} *)

(** One pool job: the run's parameters and the job's index in the
    deterministic job matrix derived from [(duv, levels)]. *)
type pool_spec

(** The deterministic product of one pool job — what crosses a worker
    pipe and lands in the journal. *)
type qrun

(** Runs one pool job in the calling domain or process, from a fresh
    checker universe: a worker regenerates the identical matrix from
    the spec's parameters and picks one index. *)
val op : (pool_spec, qrun) Executor.op

(** The JSON fields naming a run's parameters ([duv], [levels],
    [seed], [ops]), shared by the op's spec and the serve protocol's
    qualify request. *)
val params_fields :
  duv:Tabv_duv.Models.duv ->
  levels:Tabv_duv.Models.level list ->
  seed:int ->
  ops:int ->
  (string * Tabv_core.Report_json.json) list

(** [params_of_fields what fields] — the inverse of {!params_fields}
    over an object's fields, with errors prefixed by [what]. *)
val params_of_fields :
  string ->
  (string * Tabv_core.Report_json.json) list ->
  (Tabv_duv.Models.duv * Tabv_duv.Models.level list * int * int, string) result

(** {1 Journals} *)

(** The {!Journal.open_} [~kind] qualification journals use. *)
val journal_kind : string

(** Journal fingerprint of one qualification run's parameters (levels
    are deduplicated first, mirroring {!run}) and of its record
    format, so a journal of another record format is refused at
    open. *)
val fingerprint :
  duv:Tabv_duv.Models.duv ->
  levels:Tabv_duv.Models.level list ->
  seed:int ->
  ops:int ->
  string

(** {1 Running} *)

(** Raised by {!run} when [interrupted] fired before the pool drained:
    a partial detection matrix is meaningless, so there is no partial
    report — completed jobs stay journaled and a [--resume] re-run
    finishes the rest. *)
exception Interrupted

(** [run ?workers ?retries ?exec ?journal ?interrupted ~duv ~levels
    ~seed ~ops ()] — the full qualification campaign (default: 1
    worker, 1 retry, in-domain executor).  Levels are deduplicated,
    kept in first-appearance order; resilience scenarios run
    crash + livelock on the first level and deadlock on the first
    level with an initiator socket (skipped when none).

    [journal] must have been opened with {!journal_kind} and
    {!fingerprint}; {!Executor.run} replays its records in place of
    their pool jobs and appends each job it completes.  A job the
    executor could not complete (crashed / killed / timed out after
    all retries) contributes a synthetic [Process_crashed] result
    rather than aborting the campaign.
    @raise Invalid_argument on an empty or invalid level list.
    @raise Executor.Bad_record on an undecodable journal record.
    @raise Interrupted when [interrupted] fired mid-pool. *)
val run :
  ?workers:int ->
  ?retries:int ->
  ?exec:Executor.config ->
  ?journal:Journal.t ->
  ?interrupted:(unit -> bool) ->
  duv:Tabv_duv.Models.duv ->
  levels:Tabv_duv.Models.level list ->
  seed:int ->
  ops:int ->
  unit ->
  report

(** No cross-level regressions and every resilience scenario matched
    (the CLI's exit criterion). *)
val ok : report -> bool

(** Deterministic, schema-versioned report (no wall clock, no worker
    count). *)
val report_json : report -> Tabv_core.Report_json.json

(** Human-oriented matrix rendering. *)
val pp_report : Format.formatter -> report -> unit
