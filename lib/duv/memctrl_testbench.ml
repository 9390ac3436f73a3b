let run_rtl ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer ops =
  Testbench.run { Testbench.default with properties; metrics; trace_writer }
    Testbench.memctrl_rtl ops

let run_tlm_ca ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer ops =
  Testbench.run { Testbench.default with properties; metrics; trace_writer }
    Testbench.memctrl_tlm_ca ops

let run_tlm_at ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer ops =
  Testbench.run { Testbench.default with properties; metrics; trace_writer }
    (Testbench.memctrl_tlm_at ()) ops
