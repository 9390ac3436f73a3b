open Tabv_psl
open Tabv_sim

(** The one runner: every model — the catalog's ten ({!Models}) and
    any design brought from outside — is a {!model} value, and {!run}
    drives it.

    Conventions shared by all models (clock period 10 ns):
    {ul
    {- RTL: inputs are driven on the falling edge, sampled at the next
       rising edge; checkers and the trace tap sample at rising
       edges;}
    {- TLM-CA: one cycle-frame transaction per 10 ns, so checkers see
       exactly one evaluation point per clock cycle;}
    {- TLM-AT: transactions only at the instants where the preserved
       I/O signals change (strobe rise, strobe fall, result ready,
       ready fall).}} *)

(** {1 Models} *)

(** Where a model's checkers and trace tap sample. *)
type sampling =
  | Clock_edge of Clock.t  (** RTL: the clock's rising edges *)
  | Frames of Tlm.Initiator.t
      (** TLM-CA: the end of every cycle frame; RTL properties are
          reused unabstracted ({!Tabv_checker.Checker.Attach.transaction_unabstracted}) *)
  | Transactions of {
      initiator : Tlm.Initiator.t;
      grid_period : int option;
          (** adds the grid pool on this reference clock period
              ({!Tabv_checker.Checker.Attach.grid}), for
              [grid_properties] *)
    }  (** TLM-AT/LT: transaction ends *)

(** What a model hands the runner once elaborated on a fresh kernel:
    only what differs between designs. *)
type elaborated = {
  sampling : sampling;
  signals : Duv_util.signals;
      (** the design's ordered signal table, built once: checker pools
          resolve their atoms through it, and the trace tap reads it at
          every evaluation point, in this order *)
  binding : Tabv_fault.Fault.binding;  (** where a fault plan lands *)
  completed : unit -> int;  (** operations the design finished *)
  collect : (unit -> unit) option;
      (** RTL: reads the outputs at every rising edge *)
  drive : unit -> unit;
      (** the driver thread: applies the workload, then stops the
          kernel *)
}

(** A model over workloads of type ['w].  [elaborate kernel
    ~gap_cycles ~emit workload] builds the design and its driver on
    [kernel]; the driver (or the collector) passes each result to
    [emit], in order, and leaves [gap_cycles] idle cycles between
    operations. *)
type 'w model = {
  socket : string option;  (** initiator socket name; [None] at RTL *)
  elaborate :
    Kernel.t -> gap_cycles:int -> emit:(int64 -> unit) -> 'w -> elaborated;
}

(** An RTL model, elaborated against the 10 ns clock ["clk"]. *)
val rtl :
  (Kernel.t -> Clock.t -> gap_cycles:int -> emit:(int64 -> unit) -> 'w -> elaborated) ->
  'w model

(** A TLM model whose initiator socket is named [socket]. *)
val tlm :
  socket:string ->
  (Kernel.t ->
  Tlm.Initiator.t ->
  gap_cycles:int ->
  emit:(int64 -> unit) ->
  'w ->
  elaborated) ->
  'w model

(** [fault] injects a design bug (see {!Des56_rtl.fault}). *)
val des56_rtl : ?fault:Des56_rtl.fault -> unit -> Des56_iface.op list model

val des56_tlm_ca : Des56_iface.op list model

(** The driver issues the blocking read right after the strobe-fall
    instant, so the read-end event lands exactly at the model's
    completion time — [latency_ns] different from 170 models a
    wrongly abstracted TLM model. *)
val des56_tlm_at : ?latency_ns:int -> unit -> Des56_iface.op list model

(** Loosely-timed model: operations complete within the write call;
    deliberately {e not} timing equivalent, so timed abstracted
    properties are expected to fail (Theorem III.2's precondition). *)
val des56_tlm_lt : Des56_iface.op list model

val colorconv_rtl : Colorconv.pixel list list model
val colorconv_tlm_ca : Colorconv.pixel list list model
val colorconv_tlm_at : Colorconv.pixel list list model
val memctrl_rtl : Memctrl_iface.op list model
val memctrl_tlm_ca : Memctrl_iface.op list model

(** [write_latency_ns]/[read_latency_ns] override the model latencies
    (defaults 20/30 ns) to emulate a wrong abstraction. *)
val memctrl_tlm_at :
  ?write_latency_ns:int -> ?read_latency_ns:int -> unit -> Memctrl_iface.op list model

(** {1 Running} *)

(** Everything a run takes besides the model and its workload. *)
type run = {
  properties : Property.t list;
  grid_properties : Property.t list;
      (** checked by the grid pool; only models sampling
          [Transactions] with a [grid_period] take them *)
  metrics : Tabv_obs.Metrics.t option;
  trace_writer : Tabv_trace.Writer.t option;
      (** taps every evaluation point into a binary trace *)
  fault_plan : Tabv_fault.Fault.plan option;
  guard : Kernel.guard option;
  gap_cycles : int;  (** idle cycles between operations *)
}

(** No checkers, metrics, trace, faults or guard; 2 gap cycles. *)
val default : run

type run_result = {
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;  (** 0 for RTL runs *)
  completed_ops : int;
  outputs : int64 list;  (** DES56 results / packed YCbCr pixels, in order *)
  checker_stats : Tabv_obs.Checker_snapshot.t list;
  metrics : (string * Tabv_obs.Metrics.value) list;
      (** end-of-run registry snapshot; [[]] unless the run was given
          an enabled {!Tabv_obs.Metrics.t} *)
  diagnosis : Kernel.diagnosis;
      (** how the simulation ended ([Completed] for a clean stop;
          [Starved]/[Livelock]/[Budget_exhausted]/[Process_crashed]
          under fault injection or a tripped {!Kernel.guard}) *)
  faults_triggered : int;
      (** activations of the run's {!Tabv_fault.Fault.plan}; [0] when
          no plan was given or the plan was latent (never exercised) *)
}

(** [run r model workload]: create the kernel, elaborate [model],
    install [r.fault_plan], attach the checker pools, tap
    [r.trace_writer], start the collector and the driver, simulate
    under [r.guard] and report.
    @raise Invalid_argument when [r.grid_properties] is not empty and
    the model has no grid pool. *)
val run : run -> 'w model -> 'w -> run_result

(** Total failures across all checkers. *)
val total_failures : run_result -> int

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

(** Pack a converted pixel as [y lor (cb lsl 8) lor (cr lsl 16)] for
    the [outputs] list. *)
val pack_ycbcr : Colorconv.ycbcr -> int64

(** {1 Benchmark entry points}

    One-line wrappers over {!run}, kept with exactly the arguments the
    repository benchmark passes.  Everything else calls {!run} or
    {!Models.run}. *)

val run_des56_rtl :
  ?properties:Property.t list ->
  ?sim_engine:Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Des56_iface.op list ->
  run_result

val run_des56_tlm_ca :
  ?properties:Property.t list ->
  ?sim_engine:Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Des56_iface.op list ->
  run_result

val run_des56_tlm_at :
  ?properties:Property.t list ->
  ?grid_properties:Property.t list ->
  ?sim_engine:Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Des56_iface.op list ->
  run_result

val run_colorconv_rtl :
  ?properties:Property.t list ->
  ?sim_engine:Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Colorconv.pixel list list ->
  run_result

val run_colorconv_tlm_ca :
  ?properties:Property.t list ->
  ?sim_engine:Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Colorconv.pixel list list ->
  run_result

val run_colorconv_tlm_at :
  ?properties:Property.t list ->
  ?grid_properties:Property.t list ->
  ?sim_engine:Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Colorconv.pixel list list ->
  run_result
