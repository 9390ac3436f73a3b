(* tabv — RTL-to-TLM property abstraction toolbox.

   Subcommands:
     abstract  rewrite an RTL property file into TLM properties
     check     simulate a built-in DUV model with checkers attached
     record    check + capture the evaluation trace to a binary file
     recheck   re-check properties against a recorded trace, in parallel
     campaign  run a job matrix on a pool of worker domains
     qualify   build the fault x property detection matrix
     serve     persistent concurrent verification daemon over a socket
     client    submit one request to a running serve daemon
     trace     export a recorded binary trace as a VCD waveform
     replay    check properties offline against a VCD waveform
     fig3      reproduce the paper's Fig. 3 rewriting demonstration

   Every job flag is declared once in {!Cli}, with the function per
   job op that `client` sends; the executor and journal plumbing and
   the one file writer live there too. *)

open Cmdliner
open Tabv_psl
open Tabv_duv
module Checker_snapshot = Tabv_obs.Checker_snapshot

(* --- abstract ----------------------------------------------------- *)

let abstract_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Property file: lines of 'property NAME = FORMULA [@context];'")
  in
  let clock_period =
    Arg.(value & opt int 10 & info [ "clock-period"; "c" ] ~docv:"NS"
           ~doc:"Clock period of the RTL implementation in nanoseconds.")
  in
  let removed =
    Arg.(value & opt (list string) [] & info [ "remove"; "r" ] ~docv:"SIGNALS"
           ~doc:"Comma-separated signals removed by the RTL-to-TLM abstraction.")
  in
  let clock_periods =
    Arg.(value & opt (list (pair ~sep:'=' string int)) []
         & info [ "clock-periods" ] ~docv:"NAME=NS,..."
             ~doc:"Periods of named clocks used in '@NAME_pos'-style contexts.")
  in
  let summary =
    Arg.(value & flag & info [ "summary"; "s" ] ~doc:"Print one line per property.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as JSON.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the surviving TLM properties to FILE in the property \
                 language (ready for 'tabv check -p FILE' or 'tabv replay').")
  in
  let run file clock_period clock_periods removed summary json output =
    let fail = Cli.fail "abstract" in
    let properties = snd (Cli.read_props ~fail file) in
    let reports =
      Tabv_core.Methodology.abstract_all ~clock_period ~clock_periods
        ~abstracted_signals:removed properties
    in
    if json then
      print_endline
        (Tabv_core.Report_json.to_string (Tabv_core.Report_json.of_reports reports))
    else if summary then Format.printf "%a@." Tabv_core.Methodology.pp_summary reports
    else
      List.iter (fun r -> Format.printf "%a@.@." Tabv_core.Methodology.pp_report r) reports;
    (* Emit the surviving TLM property set on stdout in re-parseable
       form. *)
    let survivors = Tabv_core.Methodology.surviving reports in
    if survivors <> [] && not json then begin
      print_endline "-- abstracted TLM properties:";
      List.iter
        (fun q ->
          Format.printf "property %s = %a %a;@." q.Property.name Ltl.pp
            q.Property.formula Context.pp q.Property.context)
        survivors
    end;
    match output with
    | None -> ()
    | Some path ->
      let buffer = Buffer.create 1024 in
      let ppf = Format.formatter_of_buffer buffer in
      Format.fprintf ppf "-- abstracted from %s (clock %d ns%s)@." file clock_period
        (if removed = [] then ""
         else "; removed: " ^ String.concat ", " removed);
      List.iter
        (fun r ->
          match r.Tabv_core.Methodology.output with
          | None -> ()
          | Some q ->
            if r.Tabv_core.Methodology.requires_review then
              Format.fprintf ppf
                "-- NOTE: %s requires human review (signal abstraction was not a \
                 pure weakening)@."
                q.Property.name;
            if Tabv_core.Methodology.needs_dense_trace q.Property.formula then
              Format.fprintf ppf
                "-- NOTE: %s needs full-grid transactions (use the grid wrapper)@."
                q.Property.name;
            Format.fprintf ppf "property %s = %a %a;@." q.Property.name Ltl.pp
              q.Property.formula Context.pp q.Property.context)
        reports;
      Format.pp_print_flush ppf ();
      Cli.write_file ~fail path (Buffer.contents buffer);
      Printf.printf "wrote %d properties to %s\n" (List.length survivors) path
  in
  let doc = "Abstract RTL properties into TLM properties (Methodology III.1)." in
  Cmd.v (Cmd.info "abstract" ~doc)
    Term.(
      const run $ file $ clock_period $ clock_periods $ removed $ summary $ json
      $ output)

(* --- check / record ----------------------------------------------- *)

let metrics_flag_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable the observability registry for the run and print it: \
               kernel phase counters, signal/TLM activity, per-property \
               checker statistics (transition-cache hit rate, peak live \
               instances, peak distinct hash-consed states), shared-sampler \
               counters and the process-global interning counters.")

let metrics_json_arg =
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Write the observability report as schema-versioned JSON to \
               FILE (deterministic: byte-identical across runs with the \
               same seed).")

let check_report_json_arg =
  Cli.report_json_arg
    ~doc:
      "Write the deterministic per-property verdict report as JSON to FILE \
       ('-' for stdout).  The same document 'tabv recheck --report-json' \
       emits for a recording of this run — byte for byte."

(* The one simulation driver behind `check` and `record`; [trace_out]
   is what separates them. *)
let simulate_run ~cmd trace_out model count seed props_file metrics_flag
    metrics_json report_out =
  let fail = Cli.fail cmd in
  let metrics =
    if metrics_flag || metrics_json <> None then begin
      let m = Tabv_obs.Metrics.create ~enabled:true () in
      (* Wall-clock phase timers feed the human table only; the JSON
         report is deterministic and excludes them, so the clock is
         installed just for --metrics. *)
      if metrics_flag then Tabv_obs.Metrics.set_clock m Sys.time;
      Some m
    end
    else None
  in
  let result, writer =
    match
      Models.simulate ~metrics ~trace_out model ~seed ~ops:count
        ~props:(Cli.props_source ~fail props_file)
    with
    | Ok run -> run
    | Error message -> fail message
    (* A trace that cannot be opened, written or synced is reported by
       operation and path, not as an uncaught exception. *)
    | exception Tabv_core.Io.Io_error { op; path; error } ->
      fail (Cli.storage_failure op path error)
  in
  Printf.printf "simulated %dns, %d operations, %d kernel activations, %d transactions\n"
    result.Testbench.sim_time_ns result.Testbench.completed_ops
    result.Testbench.kernel_activations result.Testbench.transactions;
  List.iter
    (fun stat -> Format.printf "%a@." Checker_snapshot.pp stat)
    result.Testbench.checker_stats;
  (match (trace_out, writer) with
   | Some path, Some w ->
     Printf.printf "wrote trace to %s (%d samples, %d spans, %d bytes)\n" path
       (Tabv_trace.Writer.samples w)
       (Tabv_trace.Writer.spans w)
       (Tabv_trace.Writer.bytes_written w)
   | _ -> ());
  if metrics_flag then begin
    print_endline "checker-engine statistics:";
    List.iter
      (fun stat ->
        Printf.printf
          "  %-24s cache %d/%d (%.1f%% hit), peak live %d, peak distinct \
           states %d\n"
          stat.Checker_snapshot.property_name stat.cache_hits
          (stat.cache_hits + stat.cache_misses)
          (100. *. Checker_snapshot.cache_hit_rate stat)
          stat.peak_instances stat.peak_distinct_states)
      result.Testbench.checker_stats;
    let c = Tabv_checker.Progression.cache_stats () in
    Printf.printf
      "  global: %d distinct states, %d memoized transitions, %d interned \
       formulas, %d bypassed steps\n"
      c.Tabv_checker.Progression.distinct_states
      c.Tabv_checker.Progression.distinct_transitions
      c.Tabv_checker.Progression.interned_formulas
      c.Tabv_checker.Progression.cache_bypassed;
    if result.Testbench.metrics <> [] then begin
      print_endline "metrics:";
      Format.printf "%a@." Tabv_obs.Metrics.pp_snapshot result.Testbench.metrics
    end;
    match metrics with
    | Some m when Tabv_obs.Metrics.timers m <> [] ->
      print_endline "phase timers (wall clock, excluded from JSON):";
      List.iter
        (fun (name, seconds, laps) ->
          Printf.printf "  %-24s %.6fs over %d laps\n" name seconds laps)
        (Tabv_obs.Metrics.timers m)
    | Some _ | None -> ()
  end;
  (match metrics_json with
   | None -> ()
   | Some path ->
     let open Tabv_core.Report_json in
     Cli.write_json ~fail ~announce:"metrics" path
       (Testbench.metrics_json
          ~run:
            [ ("model", String (Models.name model));
              ("seed", Int seed);
              ("ops", Int count) ]
          result));
  (match report_out with
   | None -> ()
   | Some path ->
     Cli.write_json ~fail ~announce:"verdict report" path
       (Models.verdict_report model ~seed ~ops:count result));
  Cli.print_verdict result.Testbench.checker_stats

let check_cmd =
  let doc = "Run a built-in DUV model with its property checkers attached." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const (simulate_run ~cmd:"check") $ const None
      $ Arg.required Cli.model_arg $ Cli.run_ops_arg $ Cli.run_seed_arg
      $ Cli.props_arg $ metrics_flag_arg $ metrics_json_arg
      $ check_report_json_arg)

let record_cmd =
  let doc =
    "Run a model with checkers attached (exactly like $(b,check)) and \
     capture the evaluation trace to a compact binary file for offline \
     re-checking."
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const (fun path -> simulate_run ~cmd:"record" (Some path))
      $ Arg.required Cli.trace_out_arg $ Arg.required Cli.model_arg
      $ Cli.run_ops_arg $ Cli.run_seed_arg $ Cli.props_arg $ metrics_flag_arg
      $ metrics_json_arg $ check_report_json_arg)

(* --- recheck ------------------------------------------------------ *)

let recheck_cmd =
  let executor =
    Arg.(value
         & opt
             (Arg.enum
                [ ("in-domain", Tabv_campaign.Executor.In_domain);
                  ("subprocess", Tabv_campaign.Executor.Subprocess) ])
             Tabv_campaign.Executor.In_domain
         & info [ "executor" ] ~docv:"KIND"
             ~doc:"Where chunks run: $(b,in-domain) (worker domains in this \
                   process) or $(b,subprocess) (crash-isolated worker \
                   processes).  Reports are byte-identical across both.")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic per-property verdict report as JSON to FILE \
         ('-' for stdout) — byte-identical to 'tabv check --report-json' of \
         the recorded run."
  in
  let run trace_in props workers executor retries report_out =
    let open Tabv_campaign in
    let fail = Cli.fail "recheck" in
    (* The plan judges the header and dictionary of the reader the
       recheck then steps, so the trace is opened once.  A damaged
       trace and every refusal of the plan are usage errors (exit 2). *)
    let result =
      match
        Cli.with_interrupt (fun interrupted ->
            Tabv_trace.Reader.catch_read_error (fun () ->
                Recheck.run_validated ~exec:(Executor.config executor)
                  ~interrupted ~retries ~trace:trace_in
                  (Recheck.plan ~trace:trace_in
                     ~props:(Cli.props_source ~fail props) ~workers)))
      with
      | Ok result -> result
      | Error refusal -> fail refusal
      | exception Recheck.Chunk_failed message ->
        Printf.eprintf "tabv recheck: chunk failed: %s\n" message;
        exit 1
    in
    Format.printf "rechecked %d properties against %a: %d samples, %d spans@."
      (List.length result.Recheck.snapshots) Tabv_trace.Meta.pp result.Recheck.meta
      result.Recheck.samples result.Recheck.spans;
    List.iter
      (fun stat -> Format.printf "%a@." Checker_snapshot.pp stat)
      result.Recheck.snapshots;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~fail ~announce:"verdict report" path
         (Recheck.report_json result));
    Cli.print_verdict result.Recheck.snapshots
  in
  let doc =
    "Re-check a property set against a recorded binary trace — in parallel, \
     without re-simulating; the verdict report is byte-identical to the \
     live $(b,check) of the recorded run."
  in
  Cmd.v (Cmd.info "recheck" ~doc)
    Term.(
      const run $ Cli.trace_in_arg $ Cli.props_arg $ Cli.workers_arg $ executor
      $ Cli.retries_arg $ report_out)

(* --- trace -------------------------------------------------------- *)

let trace_cmd =
  let out =
    Arg.(value & opt string "des56.vcd" & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Output VCD file.")
  in
  let run input out =
    let fail = Cli.fail "trace" in
    match
      Tabv_trace.Reader.catch_read_error (fun () ->
          Ok (snd (Tabv_trace.Reader.read_trace input)))
    with
    | Ok trace ->
      Cli.write_file ~fail out (Tabv_sim.Trace_dump.to_string trace);
      Printf.printf "wrote %s (%d evaluation points)\n" out (Trace.length trace)
    | Error message -> fail message
  in
  let doc = "Export a recorded binary trace as a VCD waveform." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ Cli.trace_in_arg $ out)

(* --- replay ------------------------------------------------------- *)

let replay_cmd =
  let vcd =
    Arg.(required & opt (some file) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Recorded waveform (VCD) whose timestamps are the evaluation points.")
  in
  let props =
    Arg.(required & opt (some file) None & info [ "props"; "p" ] ~docv:"FILE"
           ~doc:"Property file to check against the waveform.")
  in
  let run vcd props =
    let fail = Cli.fail "replay" in
    let waveform =
      try Cli.reading ~fail vcd (fun () -> Tabv_sim.Vcd_reader.load vcd) with
      | Tabv_sim.Vcd_reader.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" vcd line message;
        exit 1
    in
    let properties = snd (Cli.read_props ~fail props) in
    let trace = waveform.Tabv_sim.Vcd_reader.trace in
    let known = List.map fst waveform.Tabv_sim.Vcd_reader.signals in
    (* Same gate as recheck: a property sampling a signal the waveform
       does not carry would die mid-replay on an unbound signal. *)
    (match Property.missing_signals ~known properties with
     | [] -> ()
     | missing ->
       fail
         (Printf.sprintf
            "%s: waveform does not record signal(s) %s — mismatched property set"
            vcd (String.concat ", " missing)));
    Printf.printf "replaying %d evaluation points over %d signals\n"
      (Trace.length trace) (List.length known);
    let open Tabv_checker in
    let monitors = Offline.over_trace properties trace in
    Format.printf "%a@." Coverage.pp_table monitors;
    if List.exists (fun m -> Monitor.failures m <> []) monitors then exit 1
  in
  let doc = "Check properties offline against a recorded VCD waveform." in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ vcd $ props)

(* --- campaign ----------------------------------------------------- *)

let campaign_cmd =
  let open Tabv_campaign in
  let duvs =
    Arg.(value & opt (list string) [ "des56" ] & info [ "duvs" ] ~docv:"DUVS"
           ~doc:"Comma-separated DUVs: des56, colorconv, memctrl.")
  in
  let levels =
    Arg.(value & opt (list string) []
         & info [ "levels" ] ~docv:"LEVELS"
             ~doc:"Comma-separated abstraction levels: rtl, tlm-ca, tlm-at, \
                   tlm-lt (DES56 only).  Default: rtl, tlm-ca, tlm-at.")
  in
  let seeds =
    Arg.(value & opt (list int) [ 1 ] & info [ "seeds" ] ~docv:"SEEDS"
           ~doc:"Comma-separated workload seeds.")
  in
  let props =
    Arg.(value & opt string "all" & info [ "props" ] ~docv:"SEL"
           ~doc:"Property selection: 'all', 'none', or an integer N (attach \
                 the first N checkers).")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic campaign report as JSON to FILE ('-' for \
         stdout)."
  in
  let run manifest duvs levels seeds ops props workers retries report_out
      isolate timeout journal_path resume =
    let fail = Cli.fail "campaign" in
    let manifest =
      match manifest with
      | Some path -> snd (Cli.read_manifest ~cmd:"campaign" path)
      | None ->
        let duvs = List.map (Cli.duv ~fail) duvs in
        let levels = Cli.levels ~fail levels in
        let selection =
          match Campaign.selection_of_name props with
          | Some selection -> selection
          | None -> fail (Printf.sprintf "unknown selection %S" props)
        in
        { Campaign.manifest_jobs =
            Campaign.expand_matrix ~selection ~duvs ~levels ~seeds ~ops ();
          manifest_retries = None }
    in
    let { Campaign.jobs; retries; fingerprint } =
      match Campaign.admit ~retries manifest with
      | Ok campaign -> campaign
      | Error msg -> fail msg
    in
    let workers = Cli.workers ~fail ~cap:(List.length jobs) workers in
    let exec = Cli.executor_of_flags ~fail ~isolate ~timeout in
    let summary =
      Cli.with_journal ~fail ~kind:Campaign.journal_kind ~fingerprint
        ~path:journal_path ~resume (fun journal interrupted ->
          Campaign.run ~workers ~retries ~clock:Unix.gettimeofday ~exec
            ?journal ~interrupted jobs)
    in
    Format.printf "%a@." Campaign.pp_summary summary;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~fail ~announce:"campaign report" path
         (Campaign.report_json summary));
    if summary.Campaign.pending > 0 then begin
      Printf.eprintf "tabv campaign: interrupted with %d job(s) pending%s\n"
        summary.Campaign.pending (Cli.resume_hint journal_path);
      exit 130
    end;
    if not (Campaign.all_green summary) then exit 1
  in
  let doc =
    "Run a verification campaign (job matrix) on a pool of worker domains \
     or crash-isolated worker subprocesses."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ Cli.manifest_arg $ duvs $ levels $ seeds $ Cli.matrix_ops_arg
      $ props $ Cli.workers_arg $ Cli.manifest_retries_arg $ report_out
      $ Cli.isolate_arg $ Cli.timeout_arg $ Cli.journal_arg $ Cli.resume_arg)

(* --- qualify ------------------------------------------------------ *)

let qualify_cmd =
  let open Tabv_campaign in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the deterministic detection-matrix report as JSON to FILE \
         ('-' for stdout)."
  in
  let run duv levels seed ops workers retries report_out isolate timeout
      journal_path resume =
    let fail = Cli.fail "qualify" in
    let duv = Cli.duv ~fail duv in
    let levels = Cli.levels ~fail levels in
    let workers = Cli.workers ~fail ~cap:max_int workers in
    let exec = Cli.executor_of_flags ~fail ~isolate ~timeout in
    let report =
      try
        Cli.with_journal ~fail ~kind:Qualify.journal_kind
          ~fingerprint:(Qualify.fingerprint ~duv ~levels ~seed ~ops)
          ~path:journal_path ~resume (fun journal interrupted ->
            Qualify.run ~workers ~retries ~exec ?journal ~interrupted ~duv
              ~levels ~seed ~ops ())
      with
      | Invalid_argument msg -> fail msg
      | Qualify.Interrupted ->
        Printf.eprintf
          "tabv qualify: interrupted before the pool drained; a partial \
           detection matrix is meaningless, so no report was produced%s\n"
          (Cli.resume_hint journal_path);
        exit 130
    in
    Format.printf "%a@." Qualify.pp_report report;
    (match report_out with
     | None -> ()
     | Some path ->
       Cli.write_json ~fail ~announce:"qualification report" path
         (Qualify.report_json report));
    if not (Qualify.ok report) then exit 1
  in
  let doc =
    "Fault-qualify the property suites: build the fault x property \
     detection matrix across abstraction levels and check the seeded \
     resilience scenarios."
  in
  Cmd.v (Cmd.info "qualify" ~doc)
    Term.(
      const run $ Cli.duv_arg $ Cli.level_arg $ Cli.matrix_seed_arg
      $ Cli.matrix_ops_arg $ Cli.workers_arg $ Cli.retries_arg $ report_out
      $ Cli.isolate_arg $ Cli.timeout_arg $ Cli.journal_arg $ Cli.resume_arg)

(* --- serve -------------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the daemon.")

let tcp_arg =
  Arg.(value & opt (some (pair ~sep:':' string int)) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP endpoint of the daemon (in addition to, or instead \
                 of, the Unix-domain socket).")

let serve_cmd =
  let open Tabv_serve in
  let workers =
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Warm worker count (default 2).")
  in
  let queue_bound =
    Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N"
           ~doc:"Total queued requests across all clients before new \
                 submissions are rejected with retry advice (default 64).")
  in
  let retry_after_ms =
    Arg.(value & opt int 250 & info [ "retry-after-ms" ] ~docv:"MS"
           ~doc:"Retry advice carried by backpressure rejections (default \
                 250).")
  in
  let warm_bound =
    Arg.(value & opt int 32 & info [ "warm-bound" ] ~docv:"N"
           ~doc:"Warm result-cache entries kept under LRU (default 32).")
  in
  let state_dir =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Directory for journaled campaign state (crash recovery); \
                 created if missing, stale journals are collected on \
                 startup.  Without it, journaled campaign requests are \
                 refused.")
  in
  let job_timeout =
    Arg.(value & opt float 300. & info [ "job-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline: a job running longer is cancelled \
                 and its client answered with an error echoing the \
                 deadline (default 300; 0 disables).  Subprocess workers \
                 (--isolate) are killed outright; in-domain jobs are \
                 interrupted at their next interruption point.")
  in
  let idle_timeout =
    Arg.(value & opt float 60. & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Mid-frame silence budget: a client that stops sending \
                 halfway through a request frame is disconnected and its \
                 reservations released (default 60).  Fully idle \
                 connections (no partial frame) are unaffected.")
  in
  let breaker_threshold =
    Arg.(value & opt int 3 & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"Consecutive worker-infrastructure failures before the \
                 worker slot's circuit breaker opens (default 3).")
  in
  let breaker_cooldown =
    Arg.(value & opt float 5. & info [ "breaker-cooldown" ] ~docv:"SECONDS"
           ~doc:"Quarantine length of an open worker circuit breaker \
                 before a single half-open probe job is admitted \
                 (default 5).")
  in
  let shed_watermark =
    Arg.(value & opt (some int) None & info [ "shed-watermark" ] ~docv:"N"
           ~doc:"Queue depth at which lower-priority submissions (bulk \
                 campaigns before trace work before interactive checks) \
                 start being shed with retry advice (default: 3/4 of \
                 --queue-bound).")
  in
  let run socket tcp workers isolate queue_bound retry_after_ms warm_bound
      state_dir job_timeout idle_timeout breaker_threshold breaker_cooldown
      shed_watermark =
    let fail = Cli.fail "serve" in
    let socket =
      match socket with
      | Some path -> path
      | None -> fail "--socket is required"
    in
    if workers < 1 then fail "--workers must be >= 1";
    if queue_bound < 1 then fail "--queue-bound must be >= 1";
    if warm_bound < 1 then fail "--warm-bound must be >= 1";
    if job_timeout < 0. then fail "--job-timeout must be >= 0";
    if idle_timeout <= 0. then fail "--idle-timeout must be > 0";
    if breaker_threshold < 1 then fail "--breaker-threshold must be >= 1";
    if breaker_cooldown < 0. then fail "--breaker-cooldown must be >= 0";
    (match shed_watermark with
     | Some w when w < 1 || w > queue_bound ->
       fail "--shed-watermark must be in [1, --queue-bound]"
     | _ -> ());
    (match state_dir with
     | Some dir when not (Sys.file_exists dir) ->
       (try Unix.mkdir dir 0o755 with
        | Unix.Unix_error (e, _, _) ->
          fail (Printf.sprintf "cannot create state dir %s: %s" dir
                  (Unix.error_message e)))
     | _ -> ());
    let config =
      { (Server.default_config ~socket ()) with
        tcp;
        workers;
        executor =
          (if isolate then Server.Subprocess_workers
           else Server.In_domain_workers);
        queue_bound;
        retry_after_ms;
        warm_bound;
        job_timeout_s = (if job_timeout = 0. then None else Some job_timeout);
        conn_idle_timeout_s = idle_timeout;
        breaker_threshold;
        breaker_cooldown_s = breaker_cooldown;
        shed_watermark;
        state_dir }
    in
    let banner () =
      Printf.printf "tabv serve: listening on %s%s (%d %s worker%s)\n%!" socket
        (match tcp with
         | Some (host, port) -> Printf.sprintf " and %s:%d" host port
         | None -> "")
        workers
        (if isolate then "subprocess" else "in-domain")
        (if workers = 1 then "" else "s")
    in
    let obs =
      (* Bind-time problems (socket already served by a live daemon,
         unresolvable --tcp host) surface as [Failure]. *)
      match
        Cli.with_interrupt (fun interrupted ->
            Server.run ~interrupted ~on_ready:banner config)
      with
      | obs -> obs
      | exception Failure msg -> fail msg
    in
    print_endline "tabv serve: drained";
    Format.printf "%a@." Tabv_obs.Metrics.pp_snapshot (Tabv_obs.Metrics.snapshot obs)
  in
  let doc =
    "Run the persistent verification daemon: concurrent check / record / \
     recheck / campaign / qualify requests over a Unix-domain (optionally \
     TCP) socket, with a bounded fair queue, a warm worker pool and \
     journal-backed crash recovery.  Reports are byte-identical to the \
     one-shot CLI."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ workers $ Cli.isolate_arg
      $ queue_bound $ retry_after_ms $ warm_bound $ state_dir $ job_timeout
      $ idle_timeout $ breaker_threshold $ breaker_cooldown $ shed_watermark)

(* --- client ------------------------------------------------------- *)

(* The request a `tabv client` command line asks for: a control op,
   or the job that OP's function in {!Cli} builds from the one-shot
   subcommand's own flags, defaults and conversions. *)
let client_request =
  let open Tabv_serve in
  let op =
    Arg.(required
         & pos 0
             (some
                (Arg.enum
                   [ ("check", `Check); ("record", `Record);
                     ("recheck", `Recheck); ("campaign", `Campaign);
                     ("qualify", `Qualify);
                     ("ping", `Control Protocol.Ping);
                     ("stats", `Control Protocol.Stats);
                     ("invalidate", `Control Protocol.Invalidate);
                     ("shutdown", `Control Protocol.Shutdown) ]))
             None
         & info [] ~docv:"OP"
             ~doc:"Request to submit: a job (check, record, recheck, \
                   campaign, qualify) or a control op (ping, stats, \
                   invalidate, shutdown).")
  in
  let journal =
    Arg.(value & flag & info [ "journal" ]
           ~doc:"Journal the campaign into the daemon's state dir (crash \
                 recovery; concurrent identical campaigns are refused).")
  in
  let request op check record recheck campaign qualify journal =
    match op with
    | `Control control -> Protocol.Control control
    | `Check -> Protocol.Job (check ())
    | `Record -> Protocol.Job (record ())
    | `Recheck -> Protocol.Job (recheck ())
    | `Campaign -> Protocol.Job (campaign ~journal)
    | `Qualify -> Protocol.Job (qualify ())
  in
  Term.(
    const request $ op $ Cli.check_job $ Cli.record_job $ Cli.recheck_job
    $ Cli.campaign_job $ Cli.qualify_job $ journal)

let client_cmd =
  let open Tabv_serve in
  let attempts =
    Arg.(value & opt int 10 & info [ "retry-attempts" ] ~docv:"N"
           ~doc:"Resubmissions on backpressure rejection before giving up \
                 (default 10).")
  in
  let retry_seed =
    Arg.(value & opt (some int) None & info [ "retry-seed" ] ~docv:"SEED"
           ~doc:"Seed for decorrelated-jitter backoff between backpressure \
                 retries, grown from the server's advice (default: this \
                 process id, so concurrent clients spread out).  Pass an \
                 explicit seed for reproducible retry timing.")
  in
  let report_out =
    Cli.report_json_arg
      ~doc:
        "Write the report to FILE ('-' or absent: stdout).  The bytes are \
         exactly what the one-shot CLI's --report-json would have written."
  in
  let run request socket tcp attempts retry_seed report_out =
    let fail = Cli.fail "client" in
    let endpoint =
      match (tcp, socket) with
      | Some (host, port), _ -> `Tcp (host, port)
      | None, Some path -> `Unix path
      | None, None -> fail "--socket or --tcp is required"
    in
    let client =
      match Client.connect endpoint with
      | Ok c -> c
      | Error e -> fail e
    in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match request with
        | Protocol.Job job ->
          let backoff_seed =
            match retry_seed with
            | Some s -> s
            | None -> Unix.getpid ()
          in
          (match Client.request_with_retry ~attempts ~backoff_seed client job with
           | Client.Result { ok; warm; report } ->
             (match report_out with
              | Some "-" | None -> print_string report
              | Some path ->
                Cli.write_file ~fail path report;
                Printf.printf "wrote report to %s%s\n" path
                  (if warm then " (warm)" else ""));
             if not ok then exit 1
           | Client.Rejected { retry_after_ms } ->
             Printf.eprintf
               "tabv client: server busy; giving up (server advice: retry \
                after %dms)\n"
               retry_after_ms;
             exit 75
           | Client.Failed message -> fail message)
        | Protocol.Control control ->
          (match Client.control client control with
           | Client.Pong -> print_endline "pong"
           | Client.Stats json ->
             print_endline (Tabv_core.Report_json.to_string json)
           | Client.Invalidated n ->
             Printf.printf "invalidated %d warm entr%s\n" n
               (if n = 1 then "y" else "ies")
           | Client.Shutting_down -> print_endline "server draining"
           | Client.Control_failed message -> fail message))
  in
  let doc =
    "Submit one request to a running $(b,tabv serve) daemon and print or \
     save its report — byte-identical to the one-shot CLI's."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ client_request $ socket_arg $ tcp_arg $ attempts
      $ retry_seed $ report_out)

(* --- the serve smoke script ----------------------------------------- *)

type 'a served = {
  cold : string option;  (* the first reply's report, if it ran cold *)
  warm_identical : bool;
      (* the second reply was warm, with those bytes; or no warm
         cache answers [job] ({!Tabv_serve.Handler.cacheable}) *)
  more : 'a;
  shut_down : bool;
}

(* The daemon script `tabv doctor` and the `_serve_golden` hook share:
   boot a daemon with two [executor] workers and a state directory on a
   fresh temp socket, submit [job] cold and then, when a warm cache
   answers it, warm; run [more client ~state], and ask the daemon to
   drain.  A daemon the client cannot reach is an [Error].  The temp
   tree is swept on every exit path, so a failed step leaves no socket
   or journal behind. *)
let serve_script ~executor job more =
  let open Tabv_serve in
  let dir = Filename.temp_file "tabv_serve" ".smoke" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o700;
  let socket = Filename.concat dir "tabv.sock" in
  let sweep d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat d entry) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir d with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      sweep state;
      sweep dir)
    (fun () ->
      let config =
        { (Server.default_config ~socket ()) with
          workers = 2; executor; state_dir = Some state }
      in
      Server.with_daemon config (fun () ->
          match Client.connect (`Unix socket) with
          | Error msg -> Error msg
          | Ok client ->
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                let cold =
                  match Client.request client job with
                  | Client.Result { warm = false; report; _ } -> Some report
                  | _ -> None
                in
                let warm_identical =
                  (not (Handler.cacheable job))
                  ||
                  match Client.request client job with
                  | Client.Result { warm = true; report; _ } ->
                    cold = Some report
                  | _ -> false
                in
                let more = more client ~state in
                let shut_down =
                  Client.control client Protocol.Shutdown = Client.Shutting_down
                in
                Ok { cold; warm_identical; more; shut_down })))

(* --- doctor ------------------------------------------------------- *)

let doctor_cmd =
  let run () =
    let failures = ref 0 in
    let check name ok =
      Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") name;
      if not ok then incr failures
    in
    print_endline "tabv doctor: internal consistency checks";
    check "DES known-answer vector"
      (Des.encrypt ~key:0x133457799BBCDFF1L 0x0123456789ABCDEFL = 0x85E813540F0AB405L);
    check "ColorConv black pixel"
      (Colorconv.equal_ycbcr
         (Colorconv.convert { Colorconv.r = 0; g = 0; b = 0 })
         { Colorconv.y = 16; cb = 128; cr = 128 });
    let q1_expected =
      "q1: always(!(ds && indata == 0) || nexte[1,170](out != 0)) @tb"
    in
    check "Fig. 3 rewriting (p1 -> q1)"
      (match (List.hd (Des56_props.abstraction_reports ())).Tabv_core.Methodology.output with
       | Some q -> Property.to_string q = q1_expected
       | None -> false);
    check "push-ahead law: next(a until b) (exhaustive to depth 4)"
      (Exhaustive.equivalent ~signals:[ "a"; "b" ] ~max_depth:4
         (Parser.formula_only "next(a until b)")
         (Parser.formula_only "next(a) until next(b)")
       = Exhaustive.Holds);
    let quick_ops = Workload.des56 ~seed:1 ~count:10 () in
    let checked properties model workload =
      Testbench.total_failures
        (Testbench.run { Testbench.default with properties } model workload)
    in
    check "DES56 RTL end-to-end with all checkers"
      (checked Des56_props.all (Testbench.des56_rtl ()) quick_ops = 0);
    check "DES56 TLM-AT end-to-end with reviewed checkers"
      (checked (Des56_props.tlm_reviewed ()) (Testbench.des56_tlm_at ()) quick_ops
       = 0);
    check "wrong abstraction is detected"
      (checked (Des56_props.tlm_auto_safe ())
         (Testbench.des56_tlm_at ~latency_ns:160 ())
         quick_ops
       > 0);
    let quick_bursts = Workload.colorconv ~seed:1 ~count:50 () in
    check "ColorConv TLM-AT end-to-end with reviewed checkers"
      (checked (Colorconv_props.tlm_reviewed ()) Testbench.colorconv_tlm_at
         quick_bursts
       = 0);
    let mem_ops = Workload.memctrl ~seed:1 ~count:20 () in
    check "MemCtrl RTL read-back"
      ((Testbench.run Testbench.default Testbench.memctrl_rtl mem_ops).outputs
       = List.map Int64.of_int (Memctrl_iface.reference_reads mem_ops));
    let record_recheck_identity =
      (* Record a short run with a binary trace tapped in, then replay
         the same property set offline: the verdict documents must be
         byte-identical (the recheck contract, end to end). *)
      let path = Filename.temp_file "tabv_doctor" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let live, _ =
            Result.get_ok
              (Models.simulate ~metrics:None ~trace_out:(Some path)
                 Models.Des56_rtl ~seed:1 ~ops:10
                 ~props:(fun () -> Ok None))
          in
          let open Tabv_campaign in
          Tabv_core.Report_json.(
            to_string (Models.verdict_report Models.Des56_rtl ~seed:1 ~ops:10 live)
            = to_string
                (Recheck.report_json
                   (Recheck.run ~workers:2 ~retries:0 ~trace:path
                      Des56_props.all))))
    in
    check "record + recheck reports byte-identically to the live check"
      record_recheck_identity;
    let mini_campaign =
      let open Tabv_campaign.Campaign in
      run ~workers:2
        (expand_matrix ~duvs:[ Des56; Colorconv ] ~levels:[ Rtl; Tlm_ca ]
           ~seeds:[ 1 ] ~ops:10 ())
    in
    check "mini-campaign (4 jobs, 2 worker domains)"
      (Tabv_campaign.Campaign.all_green mini_campaign
       && mini_campaign.Tabv_campaign.Campaign.completed = 4);
    let executor_smoke =
      let open Tabv_campaign in
      let jobs =
        Campaign.expand_matrix ~duvs:[ Models.Des56 ]
          ~levels:[ Models.Rtl; Models.Tlm_ca ] ~seeds:[ 1 ] ~ops:10 ()
      in
      let report exec =
        Tabv_core.Report_json.to_string
          (Campaign.report_json (Campaign.run ~workers:2 ~exec jobs))
      in
      report (Executor.config Executor.In_domain)
      = report (Executor.config Executor.Subprocess)
    in
    check "subprocess executor matches in-domain (byte-identical report)"
      executor_smoke;
    (* Both journal checks run a journaled campaign over one fixture:
       the same jobs, fingerprint and temp journal. *)
    let with_journal_fixture f =
      let open Tabv_campaign in
      let jobs =
        Campaign.expand_matrix ~duvs:[ Models.Colorconv ]
          ~levels:[ Models.Rtl ] ~seeds:[ 1; 2 ] ~ops:10 ()
      in
      let fingerprint = Campaign.fingerprint ~retries:1 jobs in
      let path = Filename.temp_file "tabv_doctor" ".journal" in
      let run ~resume =
        match
          Journal.open_ ~path ~kind:Campaign.journal_kind ~fingerprint ~resume
        with
        | Error msg -> failwith msg
        | Ok journal ->
          Fun.protect
            ~finally:(fun () -> Journal.close journal)
            (fun () -> Campaign.run ~workers:2 ~journal jobs)
      in
      let report summary =
        Tabv_core.Report_json.to_string (Campaign.report_json summary)
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () -> f ~jobs ~path ~run ~report)
    in
    check "journal round-trip (resume replays all jobs byte-identically)"
      (with_journal_fixture (fun ~jobs ~path:_ ~run ~report ->
           let fresh = run ~resume:false in
           let resumed = run ~resume:true in
           resumed.Tabv_campaign.Campaign.replayed = List.length jobs
           && report fresh = report resumed));
    (* Crash-image recovery: truncate the journal at arbitrary bytes
       (torn appends, lost fsyncs) and resume each image — the CRC
       framing must salvage the valid prefix and every resumed report
       must be byte-identical to the uninterrupted one. *)
    check "journal recovery (resume from truncated crash images, byte-identical)"
      (with_journal_fixture (fun ~jobs:_ ~path ~run ~report ->
           let expected = report (run ~resume:false) in
           let full = In_channel.with_open_bin path In_channel.input_all in
           let len = String.length full in
           List.for_all
             (fun cut ->
               let cut = max 0 (min cut len) in
               Out_channel.with_open_bin path (fun oc ->
                   Out_channel.output_string oc (String.sub full 0 cut));
               report (run ~resume:true) = expected)
             [ 1; len / 3; len / 2; len - 2 ]));
    (* Serve smoke: an in-process daemon must answer a check and a
       2-job campaign with exactly the bytes the one-shot paths
       produce, replay the check warm, and drain cleanly on a shutdown
       request. *)
    let expected_check =
      Tabv_checker.Progression.reset_universe ();
      let result, _ =
        Result.get_ok
          (Models.simulate ~metrics:None ~trace_out:None Models.Des56_rtl
             ~seed:5 ~ops:15
             ~props:(fun () -> Ok None))
      in
      Tabv_core.Report_json.to_string
        (Models.verdict_report Models.Des56_rtl ~seed:5 ~ops:15 result)
      ^ "\n"
    in
    let manifest_json =
      let open Tabv_core.Report_json in
      let job level =
        Assoc
          [ ("duv", String "des56"); ("level", String level); ("seed", Int 1);
            ("ops", Int 10) ]
      in
      Assoc [ ("jobs", List [ job "rtl"; job "tlm-ca" ]) ]
    in
    let expected_campaign =
      let open Tabv_campaign.Campaign in
      match manifest_of_json manifest_json with
      | Error msg -> failwith msg
      | Ok m ->
        Tabv_core.Report_json.to_string
          (report_json (run ~workers:2 ~retries:1 m.manifest_jobs))
        ^ "\n"
    in
    let smoke =
      let open Tabv_serve in
      let campaign ~journal client =
        match
          Client.request client
            (Protocol.Campaign
               { manifest = manifest_json; workers = 2; retries = Some 1;
                 journal })
        with
        | Client.Result { ok = true; report; _ } -> report = expected_campaign
        | _ -> false
      in
      match
        serve_script ~executor:Server.In_domain_workers
          (Protocol.Check
             { model = Models.Des56_rtl; seed = 5; ops = 15; props = None;
               engine = None; trace_out = None })
          (fun client ~state ->
            let plain = campaign ~journal:false client in
            let journaled = campaign ~journal:true client in
            (* A completed journaled campaign must collect its own
               journal: nothing may be left in the state dir. *)
            (plain, journaled, Sys.readdir state = [||]))
      with
      | Ok smoke -> smoke
      | Error msg ->
        prerr_endline ("serve smoke: " ^ msg);
        { cold = None; warm_identical = false; more = (false, false, false);
          shut_down = false }
    in
    let campaign_ok, journal_ok, state_clean = smoke.more in
    check "serve: socket check is byte-identical to the one-shot path"
      (smoke.cold = Some expected_check);
    check "serve: warm replay is byte-identical"
      (smoke.cold = Some expected_check && smoke.warm_identical);
    check "serve: 2-job campaign over the socket is byte-identical" campaign_ok;
    check "serve: journaled campaign matches the plain one byte-for-byte"
      journal_ok;
    check "serve: state dir holds no stale journals after the smoke"
      state_clean;
    check "serve: graceful shutdown drains" smoke.shut_down;
    if !failures = 0 then print_endline "all checks passed"
    else begin
      Printf.printf "%d check(s) FAILED\n" !failures;
      exit 1
    end
  in
  let doc = "Run the built-in consistency checks (known answers, laws, flows)." in
  Cmd.v (Cmd.info "doctor" ~doc) Term.(const run $ const ())

(* --- fig3 --------------------------------------------------------- *)

let fig3_cmd =
  let run () =
    List.iteri
      (fun i report ->
        if i < 3 then Format.printf "%a@.@." Tabv_core.Methodology.pp_report report)
      (Des56_props.abstraction_reports ())
  in
  let doc = "Reproduce the paper's Fig. 3 property rewriting (p1-p3 to q1-q3)." in
  Cmd.v (Cmd.info "fig3" ~doc) Term.(const run $ const ())

(* `tabv _worker` is a subprocess worker, not a command line; the
   hook must run before Cmd.eval so no cmdliner output pollutes the
   frame protocol on stdout. *)
let () = Tabv_serve.Handler.worker_hook ()

(* Hidden two-process golden hook: `tabv _serve_golden OUT ARGS...`
   builds a job from the `tabv client` arguments ARGS, serves it with
   the smoke script on *subprocess* workers, checks that a warm replay
   is byte-identical (for a job a warm cache answers), and writes the
   report bytes to OUT so the test suite can diff them against the
   one-shot CLI's file. *)
let () =
  if Array.length Sys.argv > 3 && Sys.argv.(1) = "_serve_golden" then begin
    let die msg =
      prerr_endline ("tabv _serve_golden: " ^ msg);
      exit 1
    in
    let argv =
      Array.append [| "tabv client" |]
        (Array.sub Sys.argv 3 (Array.length Sys.argv - 3))
    in
    let job =
      match Cmd.eval_value ~argv (Cmd.v (Cmd.info "client") client_request) with
      | Ok (`Ok (Tabv_serve.Protocol.Job job)) -> job
      | _ -> die "the arguments name no job"
    in
    let served =
      serve_script ~executor:Tabv_serve.Server.Subprocess_workers job
        (fun _ ~state:_ -> ())
    in
    match served with
    | Error msg -> die msg
    | Ok { cold = Some report; warm_identical = true; shut_down = true; _ } ->
      Cli.write_file ~fail:die Sys.argv.(2) report;
      exit 0
    | Ok { cold = None; _ } -> die "the first reply was not a cold result"
    | Ok { warm_identical = false; _ } -> die "warm replay is not byte-identical"
    | Ok _ -> die "shutdown refused"
  end

let () =
  let doc = "RTL property abstraction for TLM assertion-based verification" in
  let info = Cmd.info "tabv" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ abstract_cmd; check_cmd; record_cmd; recheck_cmd; campaign_cmd;
            qualify_cmd; serve_cmd; client_cmd; trace_cmd; replay_cmd;
            doctor_cmd; fig3_cmd ]))
