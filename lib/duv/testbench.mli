open Tabv_psl
open Tabv_checker

(** Testbenches: drive each DUV model over a workload, optionally with
    checkers attached and/or an evaluation trace recorded.

    Conventions shared by all testbenches (clock period 10 ns):
    {ul
    {- RTL: inputs are driven on the falling edge, sampled at the next
       rising edge; checkers and the trace recorder sample at rising
       edges;}
    {- TLM-CA: one cycle-frame transaction per 10 ns, so checkers see
       exactly one evaluation point per clock cycle;}
    {- TLM-AT: transactions only at the instants where the preserved
       I/O signals change (strobe rise, strobe fall, result ready,
       ready fall).}} *)

(** Re-export of {!Tabv_obs.Checker_snapshot.t}: per-property checker
    statistics are one shared record from monitor to JSON report. *)
type checker_stat = Tabv_obs.Checker_snapshot.t = {
  property_name : string;
  engine : string;  (** checker backend; always ["progression"] *)
  activations : int;
  passes : int;
  trivial_passes : int;
  vacuous : bool;  (** evaluated but never non-trivially activated *)
  peak_instances : int;
  peak_distinct_states : int;
      (** peak distinct hash-consed live states *)
  pending : int;
  steps : int;  (** evaluation points consumed (after context gating) *)
  cache_hits : int;  (** monitor steps answered from the transition memo *)
  cache_misses : int;  (** monitor steps that ran the rewriting *)
  failures : Monitor.failure list;
}

type run_result = {
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;  (** 0 for RTL runs *)
  completed_ops : int;
  outputs : int64 list;  (** DES56 results / packed YCbCr pixels, in order *)
  checker_stats : checker_stat list;
  metrics : (string * Tabv_obs.Metrics.value) list;
      (** end-of-run registry snapshot; [[]] unless the run was given
          an enabled {!Tabv_obs.Metrics.t} *)
  trace : Trace.t option;
  diagnosis : Tabv_sim.Kernel.diagnosis;
      (** how the simulation ended ([Completed] for a clean stop;
          [Starved]/[Livelock]/[Budget_exhausted]/[Process_crashed]
          under fault injection or a tripped {!Tabv_sim.Kernel.guard}) *)
  faults_triggered : int;
      (** activations of the run's {!Tabv_fault.Fault.plan}; [0] when
          no plan was given or the plan was latent (never exercised) *)
}

(** Total failures across all checkers. *)
val total_failures : run_result -> int

(** Snapshot a monitor's counters (used by sibling testbenches, e.g.
    {!Memctrl_testbench}); alias of {!Monitor.snapshot}. *)
val stat_of_monitor : Monitor.t -> checker_stat

(** [hits / (hits + misses)], 0 when the checker never stepped. *)
val cache_hit_rate : checker_stat -> float

val pp_checker_stat : Format.formatter -> checker_stat -> unit

(** The versioned observability document for one run
    ({!Tabv_core.Report_json.metrics_json}): run counters, the
    registry snapshot, per-property checker snapshots and the
    process-global engine cache statistics.  [run] prepends run
    identification fields (model name, seed, ...) to the ["run"]
    section. *)
val metrics_json :
  ?run:(string * Tabv_core.Report_json.json) list ->
  run_result ->
  Tabv_core.Report_json.json

(** {1 Checker-pool plumbing}

    Shared by the sibling testbenches (e.g. {!Memctrl_testbench}). *)

(** A fresh shared atom sampler over the model's resolver, whose
    query/eval counters are published on the kernel's metrics registry
    (when enabled) as the summed probes [checker.sampler.queries] /
    [checker.sampler.evals]. *)
val pool_sampler : Tabv_sim.Kernel.t -> Expr.resolver -> Sampler.t

(** End-of-run registry snapshot; [[]] when the kernel's registry is
    disabled (so default runs never pay for snapshotting). *)
val metrics_snapshot :
  Tabv_sim.Kernel.t -> (string * Tabv_obs.Metrics.value) list

(** {1 Trace-writer plumbing}

    Every testbench accepts an optional streaming binary
    {!Tabv_trace.Writer.t} ([?trace_writer]) fed from the same hooks
    as the in-memory recorder; disarmed runs pay nothing.  These
    helpers are shared with the sibling testbenches. *)

(** Publish a writer's volume counters ([trace.samples]/[trace.spans]/
    [trace.bytes]) as pull probes when the kernel's registry is armed;
    no-op for [None] or a disabled registry. *)
val arm_writer : Tabv_sim.Kernel.t -> Tabv_trace.Writer.t option -> unit

(** Feed one evaluation point to an optional writer. *)
val write_sample :
  Tabv_trace.Writer.t option ->
  time:int ->
  (string * Expr.value) list ->
  unit

(** Feed one completed transaction to an optional writer: a sample at
    the transaction end (last-wins within an instant) plus a
    begin/end span labelled by the TLM command. *)
val write_transaction :
  Tabv_trace.Writer.t option ->
  Tabv_sim.Tlm.transaction ->
  (string * Expr.value) list ->
  unit

(** Compile an optional fault plan onto a design binding; [None] or an
    empty plan installs nothing (zero overhead on fault-free runs). *)
val install_plan :
  Tabv_fault.Fault.binding ->
  Tabv_fault.Fault.plan option ->
  Tabv_fault.Fault.installed option

(** Fault activations of an installed plan; [0] for [None]. *)
val faults_triggered_of : Tabv_fault.Fault.installed option -> int

(** {1 DES56} *)

(** [gap_cycles] idle cycles between operations (default 2);
    [fault] injects a design bug (see {!Des56_rtl.fault}). *)
val run_des56_rtl :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault:Des56_rtl.fault ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Des56_iface.op list ->
  run_result

(** RTL properties applied {e unabstracted} to the cycle-accurate TLM
    model (the paper's TLM-CA rows). *)
val run_des56_tlm_ca :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Des56_iface.op list ->
  run_result

(** Abstracted (transaction-context) properties on the
    approximately-timed model.  The driver issues the blocking read
    right after the strobe-fall instant, so the read-end event lands
    exactly at the model's completion time — [model_latency_ns]
    different from 170 models a wrongly abstracted TLM model. *)
val run_des56_tlm_at :
  ?properties:Property.t list ->
  ?grid_properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?model_latency_ns:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Des56_iface.op list ->
  run_result
(** [grid_properties] are checked with the grid-mode wrapper
    ({!Checker.Attach.grid}), which handles until-based timed
    properties such as the paper's [q2]. *)

(** Loosely-timed model: operations complete within the write call;
    deliberately {e not} timing equivalent, so timed abstracted
    properties are expected to fail (Theorem III.2's precondition). *)
val run_des56_tlm_lt :
  ?properties:Property.t list ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Des56_iface.op list ->
  run_result

(** {1 ColorConv} *)

val run_colorconv_rtl :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Colorconv.pixel list list ->
  run_result

val run_colorconv_tlm_ca :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Colorconv.pixel list list ->
  run_result

val run_colorconv_tlm_at :
  ?properties:Property.t list ->
  ?grid_properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?record_trace:bool ->
  ?trace_writer:Tabv_trace.Writer.t ->
  ?gap_cycles:int ->
  ?fault_plan:Tabv_fault.Fault.plan ->
  ?guard:Tabv_sim.Kernel.guard ->
  Colorconv.pixel list list ->
  run_result

(** Pack a converted pixel as [y lor (cb lsl 8) lor (cr lsl 16)] for
    the [outputs] list. *)
val pack_ycbcr : Colorconv.ycbcr -> int64
