(* The subprocess executor's worker half: a frame server over
   stdin/stdout.  See worker.mli for the protocol. *)

module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame

let ( let* ) = Result.bind

(* Ops registered by layers above this library (lib/serve adds
   "serve_request"): name -> decoder-to-thunk.  A registry rather than
   a match arm because lib/serve depends on this library, not the
   other way around; coordinators register before [main]. *)
let extra_ops : (string, J.json -> (unit -> J.json, string) result) Hashtbl.t =
  Hashtbl.create 4

let register_op name decode = Hashtbl.replace extra_ops name decode

(* Decode a request into a thunk.  Decoding is separated from
   execution so malformed requests answer [{"error":..}] without
   running anything. *)
let decode_request json =
  let what = "request" in
  let* fields = J.open_assoc what json in
  let* op = J.string_field what "op" fields in
  match op with
  | "campaign_job" ->
    let* attempt = J.int_field what "attempt" fields in
    let* job =
      let* v = J.field what "job" fields in
      Campaign.job_spec_of_json v
    in
    Ok
      (fun () ->
        Campaign.payload_json
          (Campaign.exec_job ~attempt job))
  | "qualify_job" ->
    let* duv =
      let* name = J.string_field what "duv" fields in
      match Tabv_duv.Models.duv_of_name name with
      | Some duv -> Ok duv
      | None -> Error (Printf.sprintf "%s: unknown duv %S" what name)
    in
    let* levels =
      let* v = J.field what "levels" fields in
      let* items = J.open_list (what ^ ".levels") v in
      J.map_result
        (fun item ->
          match item with
          | J.String name ->
            (match Tabv_duv.Models.level_of_name name with
             | Some level -> Ok level
             | None -> Error (Printf.sprintf "%s: unknown level %S" what name))
          | _ -> Error (what ^ ".levels: expected strings"))
        items
    in
    let* seed = J.int_field what "seed" fields in
    let* ops = J.int_field what "ops" fields in
    let* index = J.int_field what "index" fields in
    Ok (fun () -> Qualify.qrun_json (Qualify.exec_index ~duv ~levels ~seed ~ops index))
  | "recheck_job" ->
    let* trace = J.string_field what "trace" fields in
    let* sources =
      let* v = J.field what "properties" fields in
      let* items = J.open_list (what ^ ".properties") v in
      J.map_result
        (fun item ->
          match item with
          | J.String source -> Ok source
          | _ -> Error (what ^ ".properties: expected strings"))
        items
    in
    Ok
      (fun () ->
        (* Property sources travel as re-parseable property-language
           lines; parse errors surface as the worker's [{"error":..}]
           reply through the exception path below. *)
        let properties =
          List.concat_map
            (fun source -> Tabv_psl.Parser.file source)
            sources
        in
        Recheck.payload_json (Recheck.exec_chunk ~trace ~properties))
  | other ->
    (match Hashtbl.find_opt extra_ops other with
     | Some decode -> decode json
     | None -> Error (Printf.sprintf "%s: unknown op %S" what other))

let reply_of_request payload =
  match J.of_string payload with
  | exception J.Parse_error { line; col; message } ->
    J.Assoc
      [ ( "error",
          J.String (Printf.sprintf "worker: unparsable request: %d:%d: %s" line col message) )
      ]
  | json ->
    (match decode_request json with
     | Error e -> J.Assoc [ ("error", J.String ("worker: " ^ e)) ]
     | Ok execute ->
       (* An ordinary exception here must read exactly like the
          in-domain executor's [Crashed] record — [Printexc.to_string]
          both places — so the two executors stay byte-identical.
          Hard failures never reach the [with]: the process dies and
          the coordinator classifies the corpse. *)
       (match execute () with
        | result -> J.Assoc [ ("ok", result) ]
        | exception e -> J.Assoc [ ("error", J.String (Printexc.to_string e)) ]))

let serve ic oc =
  let rec loop () =
    match Frame.read ic with
    | None -> ()
    | Some payload ->
      Frame.write oc (J.to_string (reply_of_request payload));
      loop ()
  in
  loop ()

let main () =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  serve stdin stdout
