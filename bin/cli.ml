(* Shared flag specs and run plumbing for the tabv subcommands.

   `check`, `record` and `recheck` must agree on everything that shapes
   a run — the model enumeration, the workload flags, property-file
   parsing and linting, the AT abstraction split, the executor /
   journal / interrupt plumbing and the JSON report writers — because
   the whole point of recording is that `record` + `recheck` is
   byte-identical to the live `check`.  One spec here, many terms
   there; what each job admits and refuses lives in the libraries
   ([Models.simulate], [Recheck.plan], [Campaign.admit]), which the
   serve daemon calls too. *)

open Cmdliner
open Tabv_psl
open Tabv_duv

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [fail] prints `tabv CMD: message` and exits with the usage status
   (2): flag-level problems, not verification verdicts. *)
let fail cmd msg =
  Printf.eprintf "tabv %s: %s\n" cmd msg;
  exit 2

(* --- models -------------------------------------------------------- *)

let model_enum = Arg.enum Models.names

let model_arg =
  Arg.(
    required
    & opt (some model_enum) None
    & info [ "model"; "m" ] ~docv:"MODEL"
        ~doc:
          "One of des56-rtl, des56-tlm-ca, des56-tlm-at, des56-tlm-lt, \
           colorconv-rtl, colorconv-tlm-ca, colorconv-tlm-at, memctrl-rtl, \
           memctrl-tlm-ca, memctrl-tlm-at.")

(* --- workload flags -----------------------------------------------

   `check` and `record` run 200 operations of seed 42 by default; a
   qualification matrix runs 40 of seed 1.  `tabv client` leaves the
   flags unset and takes the default of the subcommand it mirrors. *)

let check_seed = 42
let check_size = 200
let qualify_seed = 1
let qualify_size = 40

let ops_info =
  Arg.info [ "ops"; "n" ] ~docv:"N" ~doc:"Workload size (operations or pixels)."

let seed_info = Arg.info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed."
let ops_arg = Arg.(value & opt int check_size & ops_info)
let seed_arg = Arg.(value & opt int check_seed & seed_info)

let props_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "props"; "p" ] ~docv:"FILE"
        ~doc:
          "Check the RTL properties from this file instead of the built-in \
           set.  On an approximately-timed model the properties are first \
           abstracted with Methodology III.1 (clock 10 ns, the model's \
           abstracted signals); only the automatically-safe results are \
           attached.")

(* [levels ~fail names] — abstraction levels by name; none named means
   the three timing-equivalent levels. *)
let levels ~fail names =
  List.map
    (fun name ->
      match Models.level_of_name name with
      | Some l -> l
      | None -> fail (Printf.sprintf "unknown level %S" name))
    (if names = [] then [ "rtl"; "tlm-ca"; "tlm-at" ] else names)

let duv ~fail name =
  match Models.duv_of_name name with
  | Some d -> d
  | None -> fail (Printf.sprintf "unknown DUV %S" name)

let workers ~fail ~cap w =
  match Tabv_campaign.Executor.workers ~cap w with
  | Ok w -> w
  | Error msg -> fail msg

(* --- property files ----------------------------------------------- *)

let parse_props_file path =
  match Parser.file (read_file path) with
  | properties -> properties
  | exception Parser.Parse_error { line; col; message } ->
    Printf.eprintf "%s:%d:%d: %s\n" path line col message;
    exit 1

(* The property source of a `-p FILE` flag: read when the job is
   admitted, named by its path. *)
let props_source path : Models.props =
 fun () -> Ok (Option.map (fun path -> (path, parse_props_file path)) path)

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
   the flags name, if any, closed afterwards whatever happens. *)
let with_journal ~fail ~kind ~fingerprint ~path ~resume f =
  let journal =
    match (path, resume) with
    | None, true -> fail "--resume requires --journal"
    | None, false -> None
    | Some path, resume ->
      (match Tabv_campaign.Journal.open_ ~path ~kind ~fingerprint ~resume with
       | Ok j ->
         let dropped = Tabv_campaign.Journal.truncated_bytes j in
         if dropped > 0 then
           Printf.eprintf
             "%s: dropped %d bytes of torn/corrupt journal suffix (the \
              affected jobs will re-run)\n%!"
             path dropped;
         Some j
       | Error msg -> fail (Printf.sprintf "%s: %s" path msg))
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Tabv_campaign.Journal.close journal)
    (fun () -> with_interrupt (f journal))

(* The "how to pick the run back up" part of an interrupt message. *)
let resume_hint = function
  | Some path -> Printf.sprintf "; resume with --journal %s --resume" path
  | None -> " (no --journal, so completed work is lost)"

(* --- report writers ----------------------------------------------- *)

(* Write a JSON document to FILE, or stdout for "-"; the trailing
   newline makes the file diff-friendly (the byte-identity tests diff
   these files directly).  Files commit via temp + fsync + atomic
   rename, so an interrupted run leaves either the previous report or
   the complete new one — never a torn file. *)
let write_json ?(announce = "report") path doc =
  let text = Tabv_core.Report_json.to_string doc in
  match path with
  | "-" -> print_endline text
  | path ->
    Tabv_core.Io.write_file_atomic ~path (text ^ "\n");
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
