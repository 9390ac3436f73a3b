(* Request execution: one serve job in, the exact one-shot CLI report
   out.

   The byte-identity contract of the service lives here.  Every job
   executes exactly like its CLI counterpart would in a fresh process:
   the calling domain's checker universe is reset first, the
   properties are built through [Tabv_duv.Models] (the same spec the
   CLI uses), and the report text is rendered with the same emitter
   plus the same trailing newline `tabv ... --report-json FILE` writes.
   The rendered bytes are what travels (and what the warm cache
   stores) — never re-encoded JSON.

   [execute] runs wherever a server worker slot puts it: a worker
   domain or a worker subprocess (the registered ["serve_request"]
   op).  Both paths call exactly this function. *)

module J = Tabv_core.Report_json
module Models = Tabv_duv.Models
module Campaign = Tabv_campaign.Campaign
module Qualify = Tabv_campaign.Qualify
module Recheck = Tabv_campaign.Recheck
module Journal = Tabv_campaign.Journal
module Executor = Tabv_campaign.Executor

type outcome = {
  green : bool;  (* the CLI exit criterion of the request *)
  report : string;  (* exact --report-json file bytes *)
}

(* --- admission-time request identity ------------------------------- *)

(* Canonical fingerprint of a job: digest of its canonical request
   JSON.  Two requests with the same fingerprint are the same
   verification work (model, workload, properties — everything
   that shapes the result travels in the request). *)
let fingerprint job =
  Digest.to_hex (Digest.string (J.to_string (Protocol.job_json job)))

(* Whether a warm cache may answer this job.  Excluded: record (must
   actually write its trace file), journaled campaigns (must actually
   append to their journal), and recheck (the result depends on trace
   file bytes the fingerprint cannot see). *)
let cacheable = function
  | Protocol.Check { trace_out = None; _ } -> true
  | Protocol.Check { trace_out = Some _; _ } -> false
  | Protocol.Recheck _ -> false
  | Protocol.Campaign { journal; _ } -> not journal
  | Protocol.Qualify _ -> true

(* The journal a journaled campaign request appends to, under the
   server's state directory — fingerprinted, so concurrent *distinct*
   campaigns never collide ({!Journal.state_path}).  The server rejects
   concurrent requests mapping to the same path at admission. *)
let journal_path ~dir (campaign : Campaign.admitted) =
  Journal.state_path ~dir ~kind:Campaign.journal_kind
    ~fingerprint:campaign.fingerprint

let ( let* ) = Result.bind

let admit_campaign ~manifest ~retries =
  let* m = Campaign.manifest_of_json manifest in
  Campaign.admit ~retries m

(* A request's worker count is outside input (any socket client builds
   jobs), so it is admitted as the one-shot admits a -j flag. *)
let admit_workers workers = Executor.workers ~cap:max_int (Some workers)

let campaign_journal_path ~state_dir job =
  match job with
  | Protocol.Campaign { manifest; workers = _; retries; journal = true } ->
    Result.to_option
      (Result.map (journal_path ~dir:state_dir) (admit_campaign ~manifest ~retries))
  | _ -> None

(* --- execution ----------------------------------------------------- *)

let render doc = J.to_string doc ^ "\n"

(* The request's property source: inline text, named "props". *)
let inline_props props () =
  match props with
  | None -> Ok None
  | Some source ->
    (match Tabv_psl.Parser.file source with
     | properties -> Ok (Some ("props", properties))
     | exception Tabv_psl.Parser.Parse_error { line; col; message } ->
       Error (Printf.sprintf "props:%d:%d: %s" line col message))

let exec_check ~model ~seed ~ops ~props ~trace_out =
  let* result, _ =
    Models.simulate ~metrics:None ~trace_out model ~seed ~ops
      ~props:(inline_props props)
  in
  Ok
    {
      green = Tabv_duv.Testbench.total_failures result = 0;
      report = render (Models.verdict_report model ~seed ~ops result);
    }

let exec_recheck ~interrupted ~trace ~props ~workers ~retries =
  match
    Tabv_trace.Reader.catch_read_error (fun () ->
        Recheck.run_validated ~interrupted ~retries ~trace
          (Recheck.plan ~trace ~props:(inline_props props)
             ~workers:(Some workers)))
  with
  | Ok result ->
    Ok
      {
        green = Recheck.total_failures result = 0;
        report = render (Recheck.report_json result);
      }
  | Error refusal -> Error refusal
  | exception Recheck.Chunk_failed message -> Error ("chunk failed: " ^ message)

let exec_campaign ~interrupted ~state_dir ~manifest ~workers ~retries ~journal
    =
  let* campaign = admit_campaign ~manifest ~retries in
  let* workers = admit_workers workers in
  let* journal =
    if not journal then Ok None
    else
      match state_dir with
      | None -> Error "this server has no state directory (journal requests \
                       need --state-dir)"
      | Some dir ->
        let path = journal_path ~dir campaign in
        (* resume:true doubles as crash recovery: a journal left by a
           previous daemon's in-flight campaign is replayed instead of
           re-run, and a missing file is simply a fresh journal. *)
        (match
           Journal.open_ ~path ~kind:Campaign.journal_kind
             ~fingerprint:campaign.fingerprint ~resume:true
         with
         | Ok j -> Ok (Some (path, j))
         | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  let* summary =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun (_, j) -> Journal.close j) journal)
      (fun () ->
        match
          Campaign.run ~workers ~retries:campaign.retries
            ?journal:(Option.map snd journal) ~interrupted campaign.jobs
        with
        | summary -> Ok summary
        | exception Executor.Bad_record msg ->
          Error (Printf.sprintf "%s: %s" (fst (Option.get journal)) msg))
  in
  let* () =
    if summary.Campaign.pending = 0 then Ok ()
    else
      Error
        (Printf.sprintf "interrupted with %d job(s) pending"
           summary.Campaign.pending)
  in
  (* A completed journaled campaign's journal has served its purpose;
     removing it keeps the state directory from accumulating one file
     per historical campaign (crash recovery only needs journals of
     campaigns that did NOT complete). *)
  Option.iter
    (fun (path, _) -> try Sys.remove path with Sys_error _ -> ())
    journal;
  Ok
    {
      green = Campaign.all_green summary;
      report = render (Campaign.report_json summary);
    }

let exec_qualify ~interrupted ~duv ~levels ~seed ~ops ~workers ~retries =
  let* workers = admit_workers workers in
  match
    Qualify.run ~workers ~retries ~interrupted ~duv ~levels ~seed ~ops ()
  with
  | report ->
    Ok { green = Qualify.ok report; report = render (Qualify.report_json report) }
  | exception Invalid_argument msg -> Error msg
  | exception Qualify.Interrupted -> Error "interrupted before the pool drained"

(* A campaign arming hard chaos (abort, allocation storm, busy loop)
   ends the process that runs it: on a daemon whose workers are domains
   of its own process, every client's work.  Such a campaign is refused
   there, before any of its jobs runs; only a worker process runs it. *)
let in_domain_refusal = function
  | Protocol.Campaign { manifest; retries; _ } ->
    (match admit_campaign ~manifest ~retries with
     | Error _ -> None  (* [execute] refuses the manifest itself *)
     | Ok campaign ->
       List.find_map
         (fun (job : Campaign.job) ->
           match job.chaos_kind with
           | Campaign.Chaos_hard _ when job.chaos > 0 ->
             Some
               (Printf.sprintf
                  "chaos_kind %S would end this daemon's own process: \
                   only a daemon started with --isolate runs it"
                  (Campaign.chaos_kind_name job.chaos_kind))
           | Campaign.Chaos_hard _ | Campaign.Chaos_raise -> None)
         campaign.jobs)
  | Protocol.Check _ | Protocol.Recheck _ | Protocol.Qualify _ -> None

(* Execute one job in the calling domain (fresh checker universe
   first — one-shot CLI semantics).  [Error] is a request-level
   failure (bad props, bad manifest, missing trace...); unexpected
   exceptions propagate for the caller to classify.

   A failed durable-IO primitive (ENOSPC on a journal append, EIO on
   a trace fsync...) is a request-level failure too, not a daemon
   bug: the client gets an honest error event naming the operation
   and path, the journaled work already fsynced stays on disk for the
   next resume, and the daemon keeps serving. *)
let execute ?(interrupted = fun () -> false) ~state_dir job =
  Tabv_checker.Progression.reset_universe ();
  match
    match job with
    | Protocol.Check { model; seed; ops; props; engine = _; trace_out } ->
      exec_check ~model ~seed ~ops ~props ~trace_out
    | Protocol.Recheck { trace; props; workers; retries } ->
      exec_recheck ~interrupted ~trace ~props ~workers ~retries
    | Protocol.Campaign { manifest; workers; retries; journal } ->
      exec_campaign ~interrupted ~state_dir ~manifest ~workers ~retries ~journal
    | Protocol.Qualify { duv; levels; seed; ops; workers; retries } ->
      exec_qualify ~interrupted ~duv ~levels ~seed ~ops ~workers ~retries
  with
  | result -> result
  | exception Tabv_core.Io.Io_error { op; path; error } ->
    Error
      (Printf.sprintf "storage failure: %s on %s: %s (journaled work is \
                       preserved; fix the disk and resubmit)"
         op path (Unix.error_message error))

(* --- the worker op --------------------------------------------------- *)

(* One serve job inside a [_worker] subprocess: the spec is
   [{"state_dir":..?,"request":{..}}] (the job as a full request object
   with a dummy id), the result [{"green":b,"report":text}].  A
   request-level failure is raised as [Refused], so the worker's
   [{"error":..}] reply carries the message itself, as an in-domain
   worker's does. *)
type spec = {
  state_dir : string option;
  job : Protocol.job;
}

exception Refused of string

let () =
  Printexc.register_printer (function
    | Refused message -> Some message
    | _ -> None)

let op_name = "serve_request"

let spec_json { state_dir; job } =
  J.Assoc
    ((match state_dir with
      | None -> []
      | Some dir -> [ ("state_dir", J.String dir) ])
    @ [ ("request", Protocol.request_json ~id:0 (Protocol.Job job)) ])

let spec_of_json json =
  let* fields = J.open_assoc op_name json in
  let* state_dir =
    match List.assoc_opt "state_dir" fields with
    | None -> Ok None
    | Some (J.String dir) -> Ok (Some dir)
    | Some _ -> Error (op_name ^ ".state_dir: expected a string")
  in
  let* _, request =
    Result.bind (J.field op_name "request" fields) Protocol.request_of_json
  in
  match request with
  | Protocol.Job job -> Ok { state_dir; job }
  | Protocol.Control _ -> Error (op_name ^ ": control ops do not run in workers")

let outcome_of_json json =
  let what = op_name ^ " reply" in
  let* fields = J.open_assoc what json in
  let* green = J.bool_field what "green" fields in
  let* report = J.string_field what "report" fields in
  Ok { green; report }

let op =
  { Executor.name = op_name;
    spec = { to_json = spec_json; of_json = spec_of_json };
    run =
      (fun { state_dir; job } ~attempt:_ ->
        match execute ~state_dir job with
        | Ok outcome -> outcome
        | Error msg -> raise (Refused msg));
    result =
      { to_json =
          (fun { green; report } ->
            J.Assoc [ ("green", J.Bool green); ("report", J.String report) ]);
        of_json = outcome_of_json } }

(* Every op a [_worker] subprocess of this build serves. *)
let worker_ops =
  [ Executor.Op Campaign.op; Executor.Op Qualify.op; Executor.Op Recheck.op;
    Executor.Op op ]

(* The hidden worker hook: [<binary> _worker] never parses a command
   line — it turns the process into a frame server for a subprocess
   coordinator ({!Executor.spawn}) and exits.  Every binary that
   coordinates subprocess workers (the CLI, the bench runner, the test
   runner) calls this first, before anything writes to stdout. *)
let worker_hook () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "_worker" then begin
    Tabv_campaign.Worker.main worker_ops;
    exit 0
  end
