(* The subprocess executor's worker half: a frame server over
   stdin/stdout.  See worker.mli for the op contract. *)

module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame

let ( let* ) = Result.bind

let error message = J.Assoc [ ("error", J.String message) ]

(* One request envelope in, one reply document out.  The envelope and
   its spec are decoded before anything runs, so a malformed request
   is answered without running anything. *)
let reply ops payload =
  match J.of_string payload with
  | exception J.Parse_error { line; col; message } ->
    error (Printf.sprintf "worker: unparsable request: %d:%d: %s" line col message)
  | json ->
    let what = "request" in
    let decoded =
      let* fields = J.open_assoc what json in
      let* name = J.string_field what "op" fields in
      let* (Executor.Op op) =
        match List.find_opt (fun (Executor.Op op) -> op.name = name) ops with
        | Some op -> Ok op
        | None -> Error (Printf.sprintf "%s: unknown op %S" what name)
      in
      let* attempt = J.int_field what "attempt" fields in
      let* spec = Result.bind (J.field what "spec" fields) op.spec.of_json in
      Ok (fun () -> op.result.to_json (op.run spec ~attempt))
    in
    (match decoded with
     | Error e -> error ("worker: " ^ e)
     | Ok run ->
       (* An ordinary exception here must read exactly like the
          in-domain executor's [Crashed] record — [Printexc.to_string]
          both places — so the two executors stay byte-identical.
          Hard failures never reach the [with]: the process dies and
          the coordinator classifies the corpse. *)
       (match run () with
        | result -> J.Assoc [ ("ok", result) ]
        | exception e -> error (Printexc.to_string e)))

let main ops =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let version = Executor.frame_version in
  let rec loop () =
    match Frame.read ~expect_version:version stdin with
    | None -> ()
    | Some payload ->
      Frame.write ~version stdout (J.to_string (reply ops payload));
      loop ()
  in
  loop ()
