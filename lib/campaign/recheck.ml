open Tabv_psl
module J = Tabv_core.Report_json

type result = {
  meta : Tabv_trace.Meta.t;
  snapshots : Tabv_obs.Checker_snapshot.t list;
  samples : int;
  spans : int;
}

exception Chunk_failed of string

let property_source p =
  Format.asprintf "property %s = %a %a;" p.Property.name Ltl.pp
    p.Property.formula Context.pp p.Property.context

module Reader = Tabv_trace.Reader

(* One pass over an open trace: the chunk's payload. *)
let check_reader reader properties =
  (* Fresh universe per chunk, as Campaign.exec_job does per job: the
     verdict fields are universe-independent anyway, but a bounded
     per-chunk universe also keeps long recheck runs from accreting
     interned state. *)
  Tabv_checker.Progression.reset_universe ();
  let monitors = Tabv_checker.Offline.over_reader properties reader in
  ( Reader.samples reader,
    Reader.spans reader,
    Tabv_checker.Offline.snapshots monitors )

let exec_chunk ~trace ~properties =
  Reader.with_file trace (fun reader -> check_reader reader properties)

let rec drain reader =
  match Reader.step reader with
  | Reader.End -> ()
  | Reader.Changed | Reader.Unchanged -> drain reader

(* Contiguous balanced chunks: chunk i gets every property, in order,
   exactly once across chunks.  Chunk boundaries are a function of
   (count, chunks) only, so the merged snapshot order is independent
   of scheduling. *)
let chunk_bounds ~chunks count =
  let base = count / chunks and extra = count mod chunks in
  List.init chunks (fun i ->
      let start = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (start, len))

let sub_list start len items =
  List.filteri (fun i _ -> i >= start && i < start + len) items

(* One chunk as a worker receives it: the trace path and the chunk's
   properties, which travel as re-parseable property-language lines. *)
type chunk = {
  trace : string;
  properties : Property.t list;
}

let chunk_json c =
  J.Assoc
    [ ("trace", J.String c.trace);
      ("properties", J.List (List.map (fun p -> J.String (property_source p)) c.properties))
    ]

let chunk_of_json json =
  let ( let* ) = Result.bind in
  let what = "spec" in
  let* fields = J.open_assoc what json in
  let* trace = J.string_field what "trace" fields in
  let* props = J.field what "properties" fields in
  let* items = J.open_list (what ^ ".properties") props in
  let* sources =
    J.map_result
      (function
        | J.String source -> Ok source
        | _ -> Error (what ^ ".properties: expected strings"))
      items
  in
  match List.concat_map Parser.file sources with
  | properties -> Ok { trace; properties }
  | exception Parser.Parse_error { line; col; message } ->
    Error (Printf.sprintf "%s.properties:%d:%d: %s" what line col message)

let payload_json (samples, spans, snapshots) =
  J.Assoc
    [ ("samples", J.Int samples);
      ("spans", J.Int spans);
      ("properties", J.List (List.map J.checker_snapshot_json snapshots)) ]

let payload_of_json json =
  let ( let* ) = Result.bind in
  let what = "recheck reply" in
  let* fields = J.open_assoc what json in
  let* samples = J.int_field what "samples" fields in
  let* spans = J.int_field what "spans" fields in
  let* props = J.field what "properties" fields in
  let* items = J.open_list (what ^ ".properties") props in
  let* snapshots = J.map_result J.checker_snapshot_of_json items in
  Ok (samples, spans, snapshots)

let op =
  { Executor.name = "recheck_job";
    spec = { to_json = chunk_json; of_json = chunk_of_json };
    run = (fun c ~attempt:_ -> exec_chunk ~trace:c.trace ~properties:c.properties);
    result = { to_json = payload_json; of_json = payload_of_json } }

(* The pooled run over a trace whose header and dictionary have been
   validated: every chunk opens the trace again. *)
let run_pooled ~exec ?interrupted ~workers ~retries ~trace ~meta ~chunks
    properties =
  let results =
    Executor.run exec ~workers ~retries ?interrupted op
      (List.map
         (fun (start, len) -> { trace; properties = sub_list start len properties })
         (chunk_bounds ~chunks (List.length properties)))
  in
  let samples = ref 0 and spans = ref 0 in
  let snapshots =
    List.concat_map
      (function
        | None -> raise (Chunk_failed "interrupted before completion")
        | Some { Executor.outcome = Executor.Failed failure; _ } ->
          (* Every chunk reads the whole trace, so damage fails each
             of them: read it through here, and a damaged trace is
             refused as damage, as a one-chunk run refuses it. *)
          Reader.with_file trace drain;
          raise (Chunk_failed (Executor.failure_to_string failure))
        | Some { Executor.outcome = Executor.Done (s, sp, snaps); _ } ->
          (* Every chunk reads the whole trace; the totals are the
             per-chunk counts, not their sum. *)
          samples := s;
          spans := sp;
          snaps)
      (Array.to_list results)
  in
  { meta; snapshots; samples = !samples; spans = !spans }

let run_validated ?(exec = Executor.config Executor.In_domain) ?interrupted
    ~retries ~trace plan =
  let reader = Reader.open_file trace in
  let release () = Reader.close reader in
  match
    let signals = Reader.dictionary reader in
    (* A trace that records no signal is verified to its end before it
       is judged, so a damaged one is refused as damaged whatever the
       plan says. *)
    if signals = [] then drain reader;
    (signals, plan (Reader.meta reader) signals)
  with
  | exception e ->
    release ();
    raise e
  | _, Error e ->
    release ();
    Error e
  | signals, Ok (workers, properties) ->
    let meta = Reader.meta reader in
    let chunks = max 1 (min workers (List.length properties)) in
    if workers >= 1 && chunks = 1 && Executor.kind_of exec = Executor.In_domain
    then
      (* One in-domain chunk needs no worker pool: it steps the reader
         the plan was judged on (a trace without signals was read to
         its end to be judged, so it is read again).  Byte-identity
         with the pooled path is pinned by the worker-count-independence
         tests. *)
      Fun.protect ~finally:release (fun () ->
          let samples, spans, snapshots =
            if signals = [] then exec_chunk ~trace ~properties
            else check_reader reader properties
          in
          Ok { meta; snapshots; samples; spans })
    else begin
      release ();
      if workers < 1 then invalid_arg "Recheck.run: workers must be >= 1";
      Ok
        (run_pooled ~exec ?interrupted ~workers ~retries ~trace ~meta ~chunks
           properties)
    end

let plan ~trace ~props ~workers meta trace_signals =
  let ( let* ) = Result.bind in
  let module Models = Tabv_duv.Models in
  let* model =
    match Models.of_name meta.Tabv_trace.Meta.model with
    | Some model -> Ok model
    | None ->
      Error
        (Format.asprintf
           "%s: recorded from unknown model %a — stale trace or newer tabv?"
           trace Tabv_trace.Meta.pp meta)
  in
  let* user = Models.user_properties model props in
  let properties, grid_properties = Models.properties_for model user in
  let* () =
    match grid_properties with
    | [] -> Ok ()
    | grid ->
      Error
        (Printf.sprintf
           "%d propert%s need full-grid transactions (grid wrapper) and \
            cannot be re-checked against a recorded trace: %s"
           (List.length grid)
           (if List.length grid = 1 then "y" else "ies")
           (String.concat ", " (List.map (fun p -> p.Property.name) grid)))
  in
  let* () =
    if properties = [] then Error "no properties to re-check" else Ok ()
  in
  (* Every signal a property samples must have been recorded, or the
     verdicts would silently differ from a live check.  (An empty trace
     has no dictionary; nothing is sampled either, so any property set
     is fine.) *)
  let* () =
    match
      if trace_signals = [] then []
      else Property.missing_signals ~known:trace_signals properties
    with
    | [] -> Ok ()
    | missing ->
      Error
        (Format.asprintf
           "%s: trace (%a) does not record signal(s) %s — stale trace or \
            mismatched property set"
           trace Tabv_trace.Meta.pp meta
           (String.concat ", " missing))
  in
  let* workers = Executor.workers ~cap:(List.length properties) workers in
  Ok (workers, properties)

let run ?exec ?interrupted ~workers ~retries ~trace properties =
  if workers < 1 then invalid_arg "Recheck.run: workers must be >= 1";
  Result.get_ok
    (run_validated ?exec ?interrupted ~retries ~trace (fun _ _ ->
         Ok (workers, properties)))

let report_json result =
  J.verdict_report_json
    ~run:
      [ ("model", J.String result.meta.Tabv_trace.Meta.model);
        ("seed", J.Int result.meta.Tabv_trace.Meta.seed);
        ("ops", J.Int result.meta.Tabv_trace.Meta.ops) ]
    ~properties:result.snapshots ()

let total_failures result =
  Tabv_obs.Checker_snapshot.total_failures result.snapshots
