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

   [execute] runs wherever the server's worker pool puts it: a worker
   domain (in-domain pool) or a worker subprocess (the registered
   ["serve_request"] op).  Both paths call exactly this function. *)

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
let campaign_journal_path ~state_dir job =
  match job with
  | Protocol.Campaign { manifest; workers = _; retries; journal = true } ->
    (match Campaign.manifest_of_json manifest with
     | Error _ -> None
     | Ok m ->
       let retries =
         match (retries, m.Campaign.manifest_retries) with
         | Some r, _ -> r
         | None, Some r -> r
         | None, None -> 1
       in
       let fingerprint =
         Campaign.fingerprint ~retries m.Campaign.manifest_jobs
       in
       Some
         (Journal.state_path ~dir:state_dir ~kind:Campaign.journal_kind
            ~fingerprint))
  | _ -> None

(* --- execution ----------------------------------------------------- *)

let render doc = J.to_string doc ^ "\n"

let parse_props = function
  | None -> Ok None
  | Some source ->
    (match Tabv_psl.Parser.file source with
     | properties -> Ok (Some properties)
     | exception Tabv_psl.Parser.Parse_error { line; col; message } ->
       Error (Printf.sprintf "props:%d:%d: %s" line col message))

let ( let* ) = Result.bind

(* The user's properties, refused when they read signals the model
   lacks — before any simulation or recheck runs. *)
let user_props model props =
  let* user = parse_props props in
  match user with
  | Some properties ->
    let* () = Models.check_signals model properties in
    Ok user
  | None -> Ok None

let exec_check ~model ~seed ~ops ~props ~trace_out =
  let* () = Models.check_ops ops in
  let* user = user_props model props in
  let properties, grid_properties = Models.properties_for model user in
  let* writer =
    match trace_out with
    | None -> Ok None
    | Some path ->
      if not (Models.supports_trace model) then
        Error
          (Printf.sprintf "%s records no trace (loosely-timed model)"
             (Models.name model))
      else
        let meta = Tabv_trace.Meta.make ~model:(Models.name model) ~seed ~ops in
        Ok (Some (Tabv_trace.Writer.create ~path meta))
  in
  let result =
    Tabv_trace.Writer.protect writer (fun () ->
        Models.run
          { Tabv_duv.Testbench.default with
            properties; grid_properties; trace_writer = writer }
          model ~seed ~ops)
  in
  Ok
    {
      green = Tabv_duv.Testbench.total_failures result = 0;
      report = render (Models.verdict_report model ~seed ~ops result);
    }

(* The trace is opened once: the model and signal gate judges the
   header and dictionary of the reader the recheck then steps. *)
let exec_recheck ~interrupted ~trace ~props ~workers ~retries =
  let plan meta trace_signals =
    let* model =
      match Models.of_name meta.Tabv_trace.Meta.model with
      | Some model -> Ok model
      | None ->
        Error
          (Printf.sprintf "%s: recorded from unknown model %S" trace
             meta.Tabv_trace.Meta.model)
    in
    let* user = user_props model props in
    let properties, grid_properties = Models.properties_for model user in
    let* () =
      if grid_properties = [] then Ok ()
      else
        Error
          (Printf.sprintf
             "%d propert(ies) need full-grid transactions and cannot be \
              re-checked against a recorded trace"
             (List.length grid_properties))
    in
    let* () =
      if properties <> [] then Ok () else Error "no properties to re-check"
    in
    let* () =
      if trace_signals = [] then Ok ()
      else begin
        let missing =
          Tabv_psl.Property.missing_signals ~known:trace_signals properties
        in
        if missing = [] then Ok ()
        else
          Error
            (Printf.sprintf "%s: trace does not record signal(s) %s" trace
               (String.concat ", " missing))
      end
    in
    Ok (workers, properties)
  in
  match Recheck.run_validated ~interrupted ~retries ~trace plan with
  | Ok result ->
    Ok
      {
        green = Recheck.total_failures result = 0;
        report = render (Recheck.report_json result);
      }
  | Error refusal -> Error refusal
  | exception Tabv_trace.Reader.Format_error { path; message; offset; valid_prefix } ->
    Error
      (Printf.sprintf "%s: %s (at byte %d; verified prefix %d bytes)" path
         message offset valid_prefix)
  | exception Recheck.Chunk_failed message ->
    Error ("chunk failed: " ^ message)

let exec_campaign ~interrupted ~state_dir ~manifest ~workers ~retries ~journal
    =
  let* m = Campaign.manifest_of_json manifest in
  let jobs = m.Campaign.manifest_jobs in
  let* () = if jobs <> [] then Ok () else Error "empty campaign (no jobs)" in
  let* () =
    let rec validate = function
      | [] -> Ok ()
      | job :: rest ->
        let* () = Campaign.validate job in
        validate rest
    in
    validate jobs
  in
  let retries =
    match (retries, m.Campaign.manifest_retries) with
    | Some r, _ -> r
    | None, Some r -> r
    | None, None -> 1
  in
  let* journal =
    if not journal then Ok None
    else
      match state_dir with
      | None -> Error "this server has no state directory (journal requests \
                       need --state-dir)"
      | Some dir ->
        let path =
          Journal.state_path ~dir ~kind:Campaign.journal_kind
            ~fingerprint:(Campaign.fingerprint ~retries jobs)
        in
        (* resume:true doubles as crash recovery: a journal left by a
           previous daemon's in-flight campaign is replayed instead of
           re-run, and a missing file is simply a fresh journal. *)
        (match
           Journal.open_ ~path ~kind:Campaign.journal_kind
             ~fingerprint:(Campaign.fingerprint ~retries jobs) ~resume:true ()
         with
         | Ok j -> Ok (Some j)
         | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  let summary =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close journal)
      (fun () -> Campaign.run ~workers ~retries ?journal ~interrupted jobs)
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
  (match journal with
   | Some _ ->
     (match state_dir with
      | Some dir ->
        let path =
          Journal.state_path ~dir ~kind:Campaign.journal_kind
            ~fingerprint:(Campaign.fingerprint ~retries jobs)
        in
        (try Sys.remove path with Sys_error _ -> ())
      | None -> ())
   | None -> ());
  Ok
    {
      green = Campaign.all_green summary;
      report = render (Campaign.report_json summary);
    }

let exec_qualify ~interrupted ~duv ~levels ~seed ~ops ~workers ~retries =
  match
    Qualify.run ~workers ~retries ~interrupted ~duv ~levels ~seed ~ops ()
  with
  | report ->
    Ok { green = Qualify.ok report; report = render (Qualify.report_json report) }
  | exception Invalid_argument msg -> Error msg
  | exception Qualify.Interrupted -> Error "interrupted before the pool drained"

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

(* --- the subprocess worker op -------------------------------------- *)

(* [{"op":"serve_request","state_dir":..?,"request":{..}}] — execute
   one serve job inside a [_worker] subprocess.  The reply payload is
   [{"green":b,"report":text}]; request-level failures use the
   worker's standard [{"error":..}] path (via Failure). *)
let worker_op = "serve_request"

let decode_worker_request json =
  let ( let* ) = Result.bind in
  let* fields = Tabv_campaign.Wire.open_assoc worker_op json in
  let* state_dir =
    match List.assoc_opt "state_dir" fields with
    | None -> Ok None
    | Some (J.String dir) -> Ok (Some dir)
    | Some _ -> Error (worker_op ^ ".state_dir: expected a string")
  in
  let* request =
    match List.assoc_opt "request" fields with
    | Some v -> Ok v
    | None -> Error (worker_op ^ ": missing key \"request\"")
  in
  let* job =
    (* The job travels as a full request object with a dummy id. *)
    let* id_req = Protocol.request_of_json request in
    match id_req with
    | _, Protocol.Job job -> Ok job
    | _, Protocol.Control _ -> Error (worker_op ^ ": control ops do not run in workers")
  in
  Ok
    (fun () ->
      match execute ~state_dir job with
      | Ok { green; report } ->
        J.Assoc [ ("green", J.Bool green); ("report", J.String report) ]
      | Error msg -> failwith msg)

let worker_request_json ~state_dir job =
  J.Assoc
    ([ ("op", J.String worker_op) ]
    @ (match state_dir with
       | None -> []
       | Some dir -> [ ("state_dir", J.String dir) ])
    @ [ ("request", Protocol.request_json ~id:0 (Protocol.Job job)) ])

let decode_worker_reply json =
  let ( let* ) = Result.bind in
  let what = worker_op ^ " reply" in
  let* fields = Tabv_campaign.Wire.open_assoc what json in
  let* green = Tabv_campaign.Wire.bool_field what "green" fields in
  let* report = Tabv_campaign.Wire.string_field what "report" fields in
  Ok { green; report }

(* Make the [_worker] serve loop understand serve requests.  Every
   coordinator binary that can host a serve daemon (or its tests)
   calls this before {!Tabv_campaign.Worker.main}. *)
let register_worker_op () =
  Tabv_campaign.Worker.register_op worker_op decode_worker_request
