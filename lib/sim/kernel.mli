(** Discrete-event simulation kernel (SystemC-style).

    The kernel drives simulation through the classic three-phase loop:
    {ol
    {- {e evaluation}: run every runnable process;}
    {- {e update}: apply requested signal updates;}
    {- {e delta/time advance}: processes woken by updates run in the
       next delta cycle at the same simulation time; when no delta
       activity remains, time advances to the earliest timed action.}}

    Times are in nanoseconds.  The kernel is deterministic: actions
    scheduled for the same instant run in scheduling order. *)

type t

(** Held only for perfbench; selects nothing (there is one engine). *)
type engine =
  | Classic
  | Compiled

(** Held only for perfbench; selects nothing. *)
val engine_name : engine -> string

(** How a {!run} ended.  [Completed] covers both an explicit {!stop}
    and reaching the [until] horizon; the other verdicts are the
    degraded-but-structured endings introduced for fault-injection
    campaigns: a quiescent end with processes still blocked on events
    ([Starved]), a tripped delta-cycle watchdog ([Livelock]), an
    exhausted time-advance budget ([Budget_exhausted]) and a contained
    process exception ([Process_crashed], first crash wins). *)
type diagnosis =
  | Completed
  | Starved of { waiting : int }  (** blocked event waiters at the end *)
  | Livelock of { time : int; delta_cycles : int }
  | Budget_exhausted of { steps : int }
  | Process_crashed of { name : string; error : string }

(** Watchdog configuration for one {!run}. *)
type guard = {
  max_delta_cycles : int option;
      (** per-instant delta-cycle cap; tripping yields [Livelock] *)
  max_steps : int option;
      (** per-run time-advance budget; tripping yields [Budget_exhausted] *)
  contain_crashes : bool;
      (** catch exceptions from evaluation-phase actions: the raising
          process dies, the run continues, the diagnosis becomes
          [Process_crashed] *)
}

(** [{ max_delta_cycles = Some 1_000_000; max_steps = None;
    contain_crashes = false }] — a delta cap generous enough that no
    legitimate design trips it, so zero-delay feedback livelocks
    terminate by default. *)
val default_guard : guard

(** [create ?metrics ()] — when [metrics] is given, the kernel
    registers its phase probes ([kernel.activations],
    [kernel.delta_cycles], [kernel.time_advances],
    [kernel.update_actions], [kernel.timed_scheduled],
    [kernel.sim_time_ns], [kernel.watchdog_trips],
    [kernel.contained_crashes], [kernel.blocked_waiters]) and phase
    timers ([kernel.eval_phase], [kernel.update_phase],
    [kernel.advance_phase]) on that registry; components created on
    this kernel ({!Signal}, {!Tlm}) instrument the same registry.
    Without [metrics] a private disabled registry is used: probes
    still answer, push updates are no-ops. *)
val create : ?metrics:Tabv_obs.Metrics.t -> unit -> t

(** The registry this kernel (and everything created on it) reports to. *)
val metrics : t -> Tabv_obs.Metrics.t

(** Current simulation time (ns). *)
val now : t -> int

(** Current delta cycle within the current instant (0-based). *)
val delta : t -> int

(** Schedule [f] at an absolute time [>= now].
    @raise Invalid_argument if [time < now]. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** Schedule [f] after [delay >= 0] ns. *)
val schedule_after : t -> delay:int -> (unit -> unit) -> unit

(** Make [f] runnable in the current evaluation phase. *)
val schedule_now : t -> (unit -> unit) -> unit

(** Make [f] runnable in the next delta cycle of the current instant. *)
val schedule_next_delta : t -> (unit -> unit) -> unit

(** [schedule_next_delta_batch t fs n] schedules the first [n] entries
    of [fs] for the next delta in one call: {!Event}'s fan-out path.
    The array must have at least [n] entries. *)
val schedule_next_delta_batch : t -> (unit -> unit) array -> int -> unit

(** Register an update action for the update phase of the current
    delta (used by {!Signal}). *)
val request_update : t -> (unit -> unit) -> unit

(** Stop the simulation at the end of the current evaluation phase. *)
val stop : t -> unit

(** Has {!stop} been called during the current run?  A checker pool's
    stepper polls this once, before its first monitor: only drivers
    call {!stop}, never a monitor, so a pool that starts runs whole. *)
val stopping : t -> bool

(** {2 Block-runner hooks}

    A checker pool's stepper ([Checker.attach]) runs several bodies
    from one scheduled action; these hooks let it keep the
    per-activation bookkeeping identical to the evaluation loop's own. *)

(** Is the current run containing crashes ([guard.contain_crashes])?
    True during a {!run} given such a guard, and false outside runs.  Blocks use this to decide whether to
    attribute and contain per-body exceptions. *)
val containing : t -> bool

(** [add_activations t n] counts [n] extra evaluation-phase
    activations: the loop counts a block as one, and a block running
    [n + 1] bodies adds the other [n] in one call. *)
val add_activations : t -> int -> unit

(** Contain one process crash: count it and, if it is the first,
    attribute it to the last labelled process — the same bookkeeping
    the evaluation loop does for a crashing queued action. *)
val record_crash : t -> exn -> unit

(** Blocked-process accounting, maintained by {!Process} around event
    waits: a positive count at a quiescent end means event starvation
    (diagnosed as [Starved]), not completion. *)
val add_waiter : t -> unit

val remove_waiter : t -> unit

(** Name the process about to run, for [Process_crashed] attribution;
    {!Process} calls this before each body/continuation resume. *)
val set_label : t -> string -> unit

(** [run t ()] runs until no activity remains, [stop] is called, a
    watchdog of [guard] (default {!default_guard}) trips, or the
    optional [until] horizon (ns) would be crossed; returns the final
    simulation time.  How the run ended is available from
    {!last_diagnosis}.  Re-entrant calls are rejected. *)
val run : ?until:int -> ?guard:guard -> t -> int

(** Diagnosis of the most recent {!run} ([Completed] before any run). *)
val last_diagnosis : t -> diagnosis

val diagnosis_to_string : diagnosis -> string

(** Number of evaluation-phase process activations so far (a good
    proxy for simulator load, used by the benchmarks). *)
val activation_count : t -> int

(** Number of delta cycles executed so far. *)
val delta_count : t -> int

(** Watchdogs tripped so far (livelock caps and step budgets). *)
val watchdog_trip_count : t -> int

(** Process exceptions contained so far (under [contain_crashes]). *)
val contained_crash_count : t -> int
