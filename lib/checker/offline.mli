open Tabv_psl

(** Pluggable offline checkers over stored evaluation traces.

    An [OFFLINE_CHECKER] is the module shape every consumer of a
    recorded trace implements (the Arbitrar-style [init] / [on_entry]
    / [finalize] contract): configure, fold one {!Tabv_trace.Entry.t}
    at a time, summarize.  The driver {!Run} then provides the three
    ways of feeding one — an entry sequence, an in-memory
    {!Tabv_psl.Trace.t}, or a trace file streamed through
    {!Tabv_trace.Reader} in O(signal-count) memory.

    Three built-in instances:
    {ul
    {- {!Monitors} — the interned-LTL property monitors (what live
       checking attaches to a simulation);}
    {- {!Cover} — the coverage summary over a monitor pool;}
    {- {!Stats} — structural trace statistics (evaluation points, time
       range, per-signal change counts, span latencies).}} *)

module type OFFLINE_CHECKER = sig
  type config
  type state
  type result

  val name : string

  (** Fresh state for one pass over one trace. *)
  val init : config -> state

  (** Fold one entry.  Entries arrive in file order: sample times are
      strictly increasing, and sample-vs-span interleaving is not
      specified (the two are independent streams). *)
  val on_entry : state -> Tabv_trace.Entry.t -> unit

  val finalize : state -> result
end

module Run (C : OFFLINE_CHECKER) : sig
  val over_seq : C.config -> Tabv_trace.Entry.t Seq.t -> C.result
  val over_trace : C.config -> Trace.t -> C.result

  (** Streaming: the whole file is never materialized.
      @raise Tabv_trace.Reader.Format_error on a damaged file. *)
  val over_file : C.config -> string -> C.result
end

(** {1 Built-in instances} *)

(** The interned-LTL monitor pool as an offline checker: one fresh
    monitor per property, all sharing one evaluation sampler (each
    distinct atom is evaluated once per entry across the pool, exactly
    as in live checking).  Span entries are ignored — monitors consume
    evaluation points only. *)
module Monitors : sig
  type monitor_config = {
    stutter : bool;
        (** enable the stutter fast path (support masks, counter-delta
            replay, batched stutter runs).  On by default; the verdicts
            and snapshots are byte-identical either way.  Turn it off
            to isolate the per-step checker-engine cost, as the
            checker-cache benchmark does. *)
    properties : Property.t list;
  }

  include
    OFFLINE_CHECKER
      with type config = monitor_config
       and type result = (Property.t * Monitor.t) list

  val config : ?stutter:bool -> Property.t list -> config

  (** Per-property counters in property order, ready for reporting. *)
  val snapshots : result -> Tabv_obs.Checker_snapshot.t list
end

(** Coverage collector: the same monitor pool, finalized into the
    sign-off {!Coverage.summary}. *)
module Cover : sig
  include
    OFFLINE_CHECKER
      with type config = Monitors.monitor_config
       and type result = Coverage.summary

  val config : ?stutter:bool -> Property.t list -> config
end

(** Structural statistics of a trace, no properties involved. *)
module Stats : sig
  type signal_stat = {
    signal : string;
    changes : int;  (** samples whose value differs from the previous one *)
  }

  type span_stat = {
    label : string;
    count : int;
    total_latency : int;  (** summed end-start, ns *)
    max_latency : int;
  }

  type stats = {
    samples : int;
    spans : int;
    first_time : int;  (** 0 when the trace has no samples *)
    last_time : int;
    signals : signal_stat list;  (** in dictionary (sample) order *)
    span_labels : span_stat list;  (** sorted by label *)
  }

  include OFFLINE_CHECKER with type config = unit and type result = stats

  val stats_json : stats -> Tabv_core.Report_json.json
  val pp : Format.formatter -> stats -> unit
end
