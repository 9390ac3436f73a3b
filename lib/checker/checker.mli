open Tabv_psl
open Tabv_sim

(** Checker attachment: the wrapper of Sec. IV.

    Every way of hooking a property {!Monitor} to a simulation is an
    {!Attach.mode} — RTL clock edges, TLM transaction ends, the
    unabstracted-reuse experiment or the reference clock grid — and
    everything else a checker needs (shared atom sampler, metrics
    registry) travels in one {!Attach.spec} record.  The pool's
    {!Sampler} is the checker's only window onto the DUV: it carries
    the resolver every atom was compiled against, so no lookup
    function is passed around per step. *)

module Attach : sig
  (** How evaluation points are generated (Sec. III/IV of the paper):

      - [Clock_edge]: RTL checker semantics — sample at clock events;
        the property's clock context selects the edge and, for named
        contexts ([@clkB_pos]), the matching entry of [clocks].
      - [Transaction]: TLM wrapper semantics — step at the end of
        every transaction of the initiator socket (once per instant).
      - [Transaction_unabstracted]: the paper's reuse experiment — an
        {e unabstracted} RTL property stepped at transaction ends as
        if they were clock edges (sound on TLM-CA only).
      - [Grid]: sample the persistent TLM observable state on the
        reference RTL clock grid [phase + k * clock_period] (see
        DESIGN.md; for [until]-iterated timed operators on sparse
        traces). *)
  type mode =
    | Clock_edge of {
        clock : Clock.t;
        clocks : (string * Clock.t) list;
      }
    | Transaction of Tlm.Initiator.t
    | Transaction_unabstracted of Tlm.Initiator.t
    | Grid of {
        clock_period : int;
        phase : int;
      }

  (** The full attachment request.  [sampler] is the pool's sampler,
      created over the DUV's resolver ({!Sampler.create}) and shared
      by every checker observing the same evaluation points (give
      each {!attach} call its own: a pool replays idle steps only
      when its action is the first to prime the sampler at an
      instant).
      [metrics] defaults to the kernel's registry ({!Kernel.metrics})
      — pass an explicit registry only to segregate
      instrumentation. *)
  type spec = {
    sampler : Sampler.t;
    mode : mode;
    metrics : Tabv_obs.Metrics.t option;
  }

  val spec : ?metrics:Tabv_obs.Metrics.t -> Sampler.t -> mode -> spec

  (** Mode constructors. *)

  val clock_edge : ?clocks:(string * Clock.t) list -> Clock.t -> mode

  val transaction : Tlm.Initiator.t -> mode
  val transaction_unabstracted : Tlm.Initiator.t -> mode

  (** [phase] defaults to 1 ns past the grid so same-instant
      transactions complete before sampling.
      @raise Invalid_argument when [clock_period <= 0]. *)
  val grid : ?phase:int -> clock_period:int -> unit -> mode
end

(** One attached property: its {!Monitor} and the wrapper sizing. *)
type t

(** [attach spec kernel properties] synthesizes one checker per
    property (in list order), registers their atoms with
    [spec.sampler] and hooks the pool to the evaluation-point source
    selected by [spec.mode].  An empty list hooks nothing.

    The pool steps as one unit: one kernel action per sampling event
    for a clock-edge pool (the monitors sampling at that event) and one
    deferred action per instant for a transaction pool.  The action
    primes the sampler once ({!Sampler.prime_valuation}), then advances
    every monitor in attach order ({!Monitor.advance}: a monitor whose
    last step changed nothing but counters, and whose atoms that step
    read hold the same values again, replays that step's counter
    deltas instead of stepping).  No monitor primes again: each reads
    the action's prime.  The action keeps the bookkeeping of one action
    per monitor: one kernel activation per extra monitor, counted in
    one {!Kernel.add_activations} call, and — when the run contains
    crashes ({!Kernel.containing}) — each monitor's exception contained
    on its own ({!Kernel.record_crash}), so the rest of the pool still
    steps.  It polls {!Kernel.stopping} once, before the first monitor:
    only drivers stop a run, so a pool that starts steps whole.  Grid
    pools keep one timer per monitor.

    When the effective metrics registry is enabled, the pool registers
    pull probes so the registry totals checker activity across every
    property on the kernel: [checker.monitors],
    [checker.activations], [checker.passes], [checker.trivial_passes],
    [checker.steps], [checker.pending], [checker.cache_hits],
    [checker.cache_misses], [checker.failures] (sums) and
    [checker.peak_instances], [checker.peak_distinct_states]
    (maxima).

    @raise Invalid_argument, before anything is attached, when a
    property context does not match the mode (clock context on a
    transaction/grid mode, transaction context on a
    clock-edge/unabstracted mode), when a named clock is absent from
    [clocks], or when a grid period is not positive. *)
val attach : Attach.spec -> Kernel.t -> Property.t list -> t list

val monitor : t -> Monitor.t
val failures : t -> Monitor.failure list

(** {!Monitor.snapshot} of the underlying monitor. *)
val snapshot : t -> Tabv_obs.Checker_snapshot.t

(** Lifetime bound of one checker instance: the maximum number of
    instants with transactions in [(t_fire, t_end]] given the
    reference RTL clock period — [max_eps / clock_period] (Sec. IV,
    point 1; 17 for the paper's [q3] at 10 ns). *)
val array_size : t -> clock_period:int -> int
