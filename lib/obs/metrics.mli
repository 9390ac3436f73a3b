(** Metrics registry: named counters, gauges, histograms, probes and
    phase timers with a deterministic snapshot order.

    One registry is the single currency for runtime statistics across
    the stack: the simulation kernel registers phase counters, the TLM
    sockets transaction counts, the checker layer activation and cache
    probes, and the report emitters serialize a {!snapshot} into the
    versioned metrics JSON.

    Cost model:
    {ul
    {- push instruments ({!counter}, {!gauge}, {!histogram}, {!timer})
       check one shared [enabled] flag per update — near-zero when the
       registry is disabled;}
    {- pull probes ({!probe}) cost {e nothing} on the hot path: the
       supplied closure is only evaluated when a snapshot is taken, so
       modules that already keep cheap local counters expose them for
       free.}}

    Determinism: {!snapshot} is sorted by name and contains only
    simulation-derived integers; wall-clock {!timers} are reported
    separately and never appear in a snapshot, so snapshots of two
    runs with the same seed are byte-identical once serialized. *)

type t

(** [create ?enabled ()] — a fresh, empty registry (default enabled). *)
val create : ?enabled:bool -> unit -> t

(** [create ~enabled:false ()]: instruments register and probes still
    answer, but every push update is a no-op. *)
val disabled : unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** The flag {!enabled} reads, shared with every instrument of the
    registry.  A hot path tests it inline and skips the instrument call
    on a disabled registry; it is read, never written (use
    {!set_enabled}). *)
val enabled_flag : t -> bool ref

(** Install the clock used by timers (seconds) {e and} switch timer
    sampling on.  Until a clock is installed every {!start}/{!stop} is
    a branch-and-return: reading a real clock (e.g. [Sys.time], a
    syscall) on a hot path like the kernel's phase loop would dwarf
    the counter instrumentation, so wall-clock sampling is a separate
    opt-in on top of [enabled].  Dependency-free callers pass
    [Sys.time] (processor time); callers that link [unix] may prefer
    [Unix.gettimeofday]. *)
val set_clock : t -> (unit -> float) -> unit

(** Whether a timer clock has been installed ({!set_clock}). *)
val timing : t -> bool

(** {2 Counters} — monotonically increasing integers. *)

type counter

(** [counter t name] registers (or retrieves) the counter [name].
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} — last-value or running-max integers. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit

(** Keep the maximum of all recorded values (peak tracking). *)
val record_max : gauge -> int -> unit

val gauge_value : gauge -> int

(** {2 Histograms} — power-of-two value histograms. *)

type histogram

val histogram : t -> string -> histogram

(** Record one observation.  Bucketing is by powers of two: an
    observation [v] lands in the bucket with exclusive upper bound
    [2^i] where [2^(i-1) < v <= 2^i] ([v <= 1] lands in the bound-1
    bucket). *)
val observe : histogram -> int -> unit

(** {2 Probes} — pull-style gauges evaluated at snapshot time.

    Several probes may share one name; their values are combined with
    [combine] ([`Sum] by default, [`Max] for peaks).  Probes answer
    even on a disabled registry (they never cost anything on the hot
    path).
    @raise Invalid_argument on kind or combiner mismatch. *)
val probe : t -> ?combine:[ `Sum | `Max ] -> string -> (unit -> int) -> unit

(** {2 Timers} — accumulated real-time phases, excluded from snapshots.

    Timers only sample once {!set_clock} has been called on their
    registry (and it is enabled); otherwise they stay at zero. *)

type timer

val timer : t -> string -> timer

(** No-op on a disabled or clockless registry; nested starts are
    ignored. *)
val start : timer -> unit

val stop : timer -> unit

(** [time tm f] runs [f] between {!start} and {!stop} (exception-safe). *)
val time : timer -> (unit -> 'a) -> 'a

val timer_seconds : timer -> float
val timer_laps : timer -> int

(** {2 Snapshots} *)

type histogram_summary = {
  count : int;
  sum : int;
  min_value : int;  (** 0 when empty *)
  max_value : int;  (** 0 when empty *)
  by_upper_bound : (int * int) list;
      (** non-empty buckets as [(exclusive 2^i bound, count)], ascending *)
}

type value =
  | Counter of int
  | Gauge of int  (** gauges and probes *)
  | Histogram of histogram_summary

(** A registry snapshot: instrument values keyed by name, sorted by
    name, deterministic (no wall-clock values). *)
type snapshot = (string * value) list

(** All instruments, sorted by name; probes are evaluated here.
    Deterministic: no wall-clock values. *)
val snapshot : t -> snapshot

(** [merge a b] combines two snapshots name-by-name: counters and
    histograms (count, sum, per-bucket populations) are summed, gauges
    and probes keep the maximum (peak semantics), min/max histogram
    bounds widen, and names present in only one input pass through
    unchanged.  Inputs are re-sorted if needed; the result is a
    well-formed sorted snapshot, so merging is associative and
    independent of fold order up to that sort.
    @raise Invalid_argument when one name carries different kinds. *)
val merge : snapshot -> snapshot -> snapshot

(** Fold {!merge} over a list ([[]] for the empty list). *)
val merge_all : snapshot list -> snapshot

val find : t -> string -> value option

(** All timers as [(name, seconds, laps)], sorted by name. *)
val timers : t -> (string * float * int) list

(** Zero every instrument and timer; probes are left registered. *)
val reset : t -> unit

val pp_value : Format.formatter -> value -> unit
val pp_snapshot : Format.formatter -> (string * value) list -> unit
