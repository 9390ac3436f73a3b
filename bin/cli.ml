(* Shared flag specs and run plumbing for the tabv subcommands.

   Every flag that shapes a job is declared here once: one [Arg.info],
   one conversion (the function that reads and refuses its value) and,
   per op, one default.  Two front ends read them: the one-shot
   subcommands, which run the job in this process, and `tabv client`,
   which sends a daemon the [Protocol.job] the op's function below
   builds from the same flags.  So a flag left out means the same run
   on both, and refuses the same way.  What each job admits and
   refuses after that lives in the libraries ([Models.simulate],
   [Recheck.plan], [Campaign.admit]), which the serve daemon calls
   too. *)

open Cmdliner
open Tabv_psl
open Tabv_duv
module Protocol = Tabv_serve.Protocol

(* [fail] prints `tabv CMD: message` and exits with the usage status
   (2): flag-level problems, not verification verdicts. *)
let fail cmd msg =
  Printf.eprintf "tabv %s: %s\n" cmd msg;
  exit 2

(* --- files --------------------------------------------------------- *)

(* [f ()], with a file that cannot be opened or read refused naming
   [path] (an open error names it already; a read error does not). *)
let reading ~fail path f =
  try f () with
  | Sys_error message ->
    fail
      (if String.starts_with ~prefix:path message then message
       else path ^ ": " ^ message)

let read_file ~fail path =
  reading ~fail path (fun () -> In_channel.with_open_bin path In_channel.input_all)

let storage_failure op path error =
  Printf.sprintf "storage failure: %s on %s: %s" op path
    (Unix.error_message error)

(* Every report and output file goes through here: temp + fsync +
   atomic rename, so an interrupted run leaves either the previous
   file or the complete new one, never a torn one.  A file that cannot
   be written is refused by operation and path. *)
let write_file ~fail path text =
  try Tabv_core.Io.write_file_atomic ~path text
  with Tabv_core.Io.Io_error { op; path; error } ->
    fail (storage_failure op path error)

(* --- job flags ----------------------------------------------------- *)

(* Required one-shot, and by a client's check and record. *)
let model_arg =
  Arg.(opt (some (enum Models.names)) None & info [ "model"; "m" ] ~docv:"MODEL"
         ~doc:"One of des56-rtl, des56-tlm-ca, des56-tlm-at, des56-tlm-lt, \
               colorconv-rtl, colorconv-tlm-ca, colorconv-tlm-at, \
               memctrl-rtl, memctrl-tlm-ca, memctrl-tlm-at.")

(* `check` and `record` run 200 operations of seed 42; a
   qualification matrix, and a campaign matrix, 40 of seed 1. *)
let ops_info =
  Arg.info [ "ops"; "n" ] ~docv:"N" ~absent:"200; 40 for qualify and a campaign matrix"
    ~doc:"Workload size per job (operations or pixels)."

let seed_info =
  Arg.info [ "seed" ] ~docv:"SEED" ~absent:"42; 1 for qualify"
    ~doc:"Workload seed (shared by every job of a qualification matrix)."

let run_ops_arg = Arg.(value & opt int 200 ops_info)
let run_seed_arg = Arg.(value & opt int 42 seed_info)
let matrix_ops_arg = Arg.(value & opt int 40 ops_info)
let matrix_seed_arg = Arg.(value & opt int 1 seed_info)

let props_arg =
  Arg.(value & opt (some file) None & info [ "props"; "p" ] ~docv:"FILE"
         ~doc:"Check the RTL properties from this file instead of the \
               model's built-in set (a recheck's: the recorded model's).  On \
               an approximately-timed model the properties are first \
               abstracted with Methodology III.1 (clock 10 ns, the model's \
               abstracted signals); only the automatically-safe results are \
               attached.  A served request carries the file's text.")

(* The conversion of -p: FILE's text and its properties.  A file that
   does not parse is refused at the failing position (exit 1). *)
let read_props ~fail path =
  let source = read_file ~fail path in
  match Parser.file source with
  | properties -> (source, properties)
  | exception Parser.Parse_error { line; col; message } ->
    Printf.eprintf "%s:%d:%d: %s\n" path line col message;
    exit 1

(* The property source of a one-shot `-p FILE`: read when the job is
   admitted, named by its path. *)
let props_source ~fail path : Models.props =
 fun () -> Ok (Option.map (fun path -> (path, snd (read_props ~fail path))) path)

(* Two converters over one flag: the one-shot reads a local file, a
   served recheck names a path on the daemon's side. *)
let trace_in_info =
  Arg.info [ "trace-in"; "i" ] ~docv:"FILE"
    ~doc:"Binary trace recorded by 'tabv record' (served: a path the daemon \
          reads)."

let trace_in_arg = Arg.(required & opt (some file) None trace_in_info)
let served_trace_in_arg = Arg.(value & opt (some string) None trace_in_info)

(* Required one-shot by `record`, and by a client's record. *)
let trace_out_arg =
  Arg.(opt (some string) None & info [ "trace-out"; "o" ] ~docv:"FILE"
         ~doc:"Capture the run's evaluation trace (dictionary-encoded, \
               delta-timed binary format) to FILE for later 'tabv recheck' \
               (served: a path the daemon writes).")

let manifest_arg =
  Arg.(value & opt (some file) None & info [ "manifest" ] ~docv:"FILE"
         ~doc:"JSON campaign manifest ('jobs' and/or 'matrix'; see the \
               examples/ directory).  Mutually exclusive with the matrix \
               flags; a served campaign carries the manifest itself.")

(* The conversion of --manifest: the document and the campaign it
   describes, refused naming the file. *)
let read_manifest ~cmd path =
  let refuse msg = fail cmd (Printf.sprintf "%s: %s" path msg) in
  match Tabv_core.Report_json.of_string (read_file ~fail:(fail cmd) path) with
  | exception Tabv_core.Report_json.Parse_error { line; col; message } ->
    refuse (Printf.sprintf "%d:%d: %s" line col message)
  | json ->
    (match Tabv_campaign.Campaign.manifest_of_json json with
     | Ok manifest -> (json, manifest)
     | Error msg -> refuse msg)

let duv_arg =
  Arg.(value & opt string "des56" & info [ "duv" ] ~docv:"DUV"
         ~doc:"Device under verification: des56, colorconv or memctrl.")

let duv ~fail name =
  match Models.duv_of_name name with
  | Some d -> d
  | None -> fail (Printf.sprintf "unknown DUV %S" name)

let level_arg =
  Arg.(value & opt_all string [] & info [ "level" ] ~docv:"LEVEL"
         ~doc:"Abstraction level to qualify (repeatable): rtl, tlm-ca, \
               tlm-at, tlm-lt (DES56 only).  Default: rtl tlm-ca tlm-at.")

(* [levels ~fail names] — abstraction levels by name; none named means
   the three timing-equivalent levels. *)
let levels ~fail names =
  List.map
    (fun name ->
      match Models.level_of_name name with
      | Some l -> l
      | None -> fail (Printf.sprintf "unknown level %S" name))
    (if names = [] then [ "rtl"; "tlm-ca"; "tlm-at" ] else names)

let workers_arg =
  Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~docv:"N"
         ~doc:"Workers of the job's pool (recheck, campaign, qualify).  \
               Default: the machine's recommended domain count, capped by a \
               recheck's property count or a campaign's job count.  No \
               report depends on it.")

let workers ~fail ~cap w =
  match Tabv_campaign.Executor.workers ~cap w with
  | Ok w -> w
  | Error msg -> fail msg

let retries_info =
  Arg.info [ "retries" ] ~docv:"N"
    ~doc:"Retries per crashing chunk or job (default 1; a campaign \
          manifest's 'retries' key is used when this flag is absent)."

let retries_arg = Arg.(value & opt int 1 retries_info)
let manifest_retries_arg = Arg.(value & opt (some int) None retries_info)

(* --- jobs ---------------------------------------------------------

   Each job op's one function from its parsed flags to the job a
   daemon runs: what `tabv client OP` sends.  A term yields the
   function unapplied, so a client reads and refuses the flags of its
   OP alone.  The conversions are the one-shot's; a property file and
   a manifest travel as their contents, and an absent -j resolves here
   because a job carries a count. *)

let client_fail msg = fail "client" msg

let required flag op = function
  | Some v -> v
  | None -> client_fail (Printf.sprintf "--%s is required for %s" flag op)

let props_text = Option.map (fun path -> fst (read_props ~fail:client_fail path))
let served_workers = workers ~fail:client_fail ~cap:max_int

let simulate_job ~record =
  let job model ops seed props trace_out () =
    let trace_out =
      if record then Some (required "trace-out" "record" trace_out) else None
    in
    let model = required "model" "this op" model in
    Protocol.Check
      { model; seed; ops; props = props_text props; engine = None; trace_out }
  in
  Term.(const job $ Arg.value model_arg $ run_ops_arg $ run_seed_arg $ props_arg
        $ Arg.value trace_out_arg)

let check_job = simulate_job ~record:false
let record_job = simulate_job ~record:true

let recheck_job =
  let job trace props workers retries () =
    let trace = required "trace-in" "recheck" trace in
    let props = props_text props in
    Protocol.Recheck { trace; props; workers = served_workers workers; retries }
  in
  Term.(const job $ served_trace_in_arg $ props_arg $ workers_arg $ retries_arg)

let campaign_job =
  let job path workers retries ~journal =
    let manifest, _ =
      read_manifest ~cmd:"client" (required "manifest" "campaign" path)
    in
    Protocol.Campaign { manifest; workers = served_workers workers; retries; journal }
  in
  Term.(const job $ manifest_arg $ workers_arg $ manifest_retries_arg)

let qualify_job =
  let job duv_name level_names seed ops workers retries () =
    let duv = duv ~fail:client_fail duv_name in
    let levels = levels ~fail:client_fail level_names in
    Protocol.Qualify { duv; levels; seed; ops; workers = served_workers workers; retries }
  in
  Term.(const job $ duv_arg $ level_arg $ matrix_seed_arg $ matrix_ops_arg
        $ workers_arg $ retries_arg)

(* --- executor / journal / interrupt plumbing ---------------------- *)

let isolate_arg =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Run jobs in crash-isolated worker subprocesses instead of \
           in-process domains.  A job that aborts, segfaults, allocates \
           without bound or busy-loops kills only its worker; the campaign \
           records the death and continues.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Per-job wall-clock watchdog (requires $(b,--isolate)): a worker \
           still running after SECS is SIGKILLed and the job recorded as \
           timed out after its retries are exhausted.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead journal: append every completed job's result durably \
           to FILE as it finishes, so an interrupted run can be finished \
           later with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay completed jobs from the $(b,--journal) file instead of \
           re-running them.  The journal must belong to exactly this \
           campaign (same jobs, same retry budget); the final report is \
           byte-identical to an uninterrupted run.")

(* Build the executor configuration from the flags. *)
let executor_of_flags ~fail ~isolate ~timeout =
  let open Tabv_campaign.Executor in
  match (isolate, timeout) with
  | false, Some _ -> fail "--timeout requires --isolate"
  | false, None -> config In_domain
  | true, timeout -> config ?job_timeout_s:timeout Subprocess

(* Run [f interrupted] with SIGINT/SIGTERM captured into [interrupted]
   (restoring the previous dispositions afterwards), so a ^C drains
   gracefully: workers die, the journal keeps its completed records,
   and the command reports what is pending instead of vanishing. *)
let with_interrupt f =
  let flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  let previous_int = Sys.signal Sys.sigint handler in
  let previous_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint previous_int;
      Sys.set_signal Sys.sigterm previous_term)
    (fun () -> f (fun () -> Atomic.get flag))

(* Run [f journal interrupted] under [with_interrupt] and the journal
   the flags name, if any, closed afterwards whatever happens.  A
   journal that cannot be resumed — its header, or a record the batch
   cannot decode — is refused naming the file. *)
let with_journal ~fail ~kind ~fingerprint ~path ~resume f =
  let opened =
    match (path, resume) with
    | None, true -> Error "--resume requires --journal"
    | None, false -> Ok None
    | Some path, resume ->
      (match Tabv_campaign.Journal.open_ ~path ~kind ~fingerprint ~resume with
       | Ok j ->
         let dropped = Tabv_campaign.Journal.truncated_bytes j in
         if dropped > 0 then
           Printf.eprintf
             "%s: dropped %d bytes of torn/corrupt journal suffix (the \
              affected jobs will re-run)\n%!"
             path dropped;
         Ok (Some (path, j))
       | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  match opened with
  | Error msg -> fail msg
  | Ok journal ->
    (match
       Fun.protect
         ~finally:(fun () ->
           Option.iter (fun (_, j) -> Tabv_campaign.Journal.close j) journal)
         (fun () -> with_interrupt (f (Option.map snd journal)))
     with
     | result -> result
     | exception Tabv_campaign.Executor.Bad_record msg ->
       fail (Printf.sprintf "%s: %s" (fst (Option.get journal)) msg))

(* The "how to pick the run back up" part of an interrupt message. *)
let resume_hint = function
  | Some path -> Printf.sprintf "; resume with --journal %s --resume" path
  | None -> " (no --journal, so completed work is lost)"

(* --- report writers ----------------------------------------------- *)

(* Write a JSON document to FILE, or stdout for "-"; the trailing
   newline makes the file diff-friendly (the byte-identity tests diff
   these files directly). *)
let write_json ~fail ?(announce = "report") path doc =
  let text = Tabv_core.Report_json.to_string doc in
  match path with
  | "-" -> print_endline text
  | path ->
    write_file ~fail path (text ^ "\n");
    Printf.printf "wrote %s to %s\n" announce path

let report_json_arg ~doc =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE" ~doc)

(* The verdict line of check, record and recheck: exit 1 listing every
   failure, or say that all checkers passed. *)
let print_verdict snapshots =
  match Tabv_obs.Checker_snapshot.total_failures snapshots with
  | 0 -> print_endline "all checkers passed"
  | failures ->
    Printf.printf "%d failure(s):\n" failures;
    List.iter
      (fun stat ->
        List.iter
          (fun f -> Format.printf "  %a@." Tabv_checker.Monitor.pp_failure f)
          stat.Tabv_obs.Checker_snapshot.failures)
      snapshots;
    exit 1
