open Tabv_psl

(** Benchmark entry points for the MemCtrl models: one-line wrappers
    over {!Testbench.run}, kept with exactly the arguments the
    repository benchmark passes.  Everything else calls
    {!Testbench.run} or {!Models.run}. *)

val run_rtl :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->  (* held only for perfbench; selects nothing *)
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Memctrl_iface.op list ->
  Testbench.run_result

val run_tlm_ca :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Memctrl_iface.op list ->
  Testbench.run_result

val run_tlm_at :
  ?properties:Property.t list ->
  ?sim_engine:Tabv_sim.Kernel.engine ->
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  Memctrl_iface.op list ->
  Testbench.run_result
