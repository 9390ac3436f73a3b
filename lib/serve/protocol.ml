(* The tabv-serve socket protocol: versioned frames carrying JSON
   requests and events.

   Transport: {!Tabv_core.Frame} versioned frames ([frame_version] in
   every header, so mismatched builds fail with a named error instead
   of a garbled stream).  On connect the server speaks first with a
   hello frame naming the application protocol ([protocol_version]);
   the client checks it before sending anything.

   A connection then carries any number of interleaved requests.  The
   client picks a connection-unique [id] per request; every event the
   server emits for that request echoes the [id], so a client can keep
   several requests in flight on one socket. *)

module J = Tabv_core.Report_json

let frame_version = 1
let protocol_version = 1
let hello_name = "tabv-serve"

let ( let* ) = Result.bind

(* --- requests ------------------------------------------------------ *)

(* The verification work a client can submit.  Property sets travel
   inline as property-language source (never paths: the daemon must
   not depend on sharing a filesystem view with the client for
   anything but traces it recorded itself). *)
type job =
  | Check of {
      model : Tabv_duv.Models.t;
      seed : int;
      ops : int;
      props : string option;  (* property-language source, inline *)
      engine : Tabv_sim.Kernel.engine option;  (* held only for perfbench; selects nothing *)
      trace_out : string option;  (* Some path = a record request *)
    }
  | Recheck of {
      trace : string;
      props : string option;
      workers : int;
      retries : int;
    }
  | Campaign of {
      manifest : J.json;
      workers : int;
      retries : int option;  (* manifest default when absent *)
      journal : bool;  (* journal into the daemon's state dir *)
    }
  | Qualify of {
      duv : Tabv_duv.Models.duv;
      levels : Tabv_duv.Models.level list;
      seed : int;
      ops : int;
      workers : int;
      retries : int;
    }

type control =
  | Ping
  | Stats
  | Invalidate  (* drop the warm cache *)
  | Shutdown  (* graceful drain *)

type request =
  | Job of job
  | Control of control

let job_op = function
  | Check { trace_out = None; _ } -> "check"
  | Check { trace_out = Some _; _ } -> "record"
  | Recheck _ -> "recheck"
  | Campaign _ -> "campaign"
  | Qualify _ -> "qualify"

(* Scheduling priority tiers for load shedding, a pure function of the
   job shape so both ends of the wire agree without negotiating:
   interactive single checks outrank trace work, which outranks bulk
   campaigns — when the daemon is overloaded, the bulk work (cheap to
   re-submit, expensive to run) is what gets shed first. *)
let job_priority = function
  | Check { trace_out = None; _ } -> 3
  | Check { trace_out = Some _; _ } | Recheck _ -> 2
  | Campaign _ | Qualify _ -> 1

(* --- request JSON -------------------------------------------------- *)

let opt_field name to_json = function
  | None -> []
  | Some v -> [ (name, to_json v) ]

let job_json job =
  let fields =
    match job with
    | Check { model; seed; ops; props; engine = _; trace_out } ->
      [ ("op", J.String (job_op job));
        ("model", J.String (Tabv_duv.Models.name model));
        ("seed", J.Int seed); ("ops", J.Int ops) ]
      @ opt_field "props" (fun s -> J.String s) props
      @ opt_field "trace_out" (fun s -> J.String s) trace_out
    | Recheck { trace; props; workers; retries } ->
      [ ("op", J.String "recheck"); ("trace", J.String trace) ]
      @ opt_field "props" (fun s -> J.String s) props
      @ [ ("workers", J.Int workers); ("retries", J.Int retries) ]
    | Campaign { manifest; workers; retries; journal } ->
      [ ("op", J.String "campaign"); ("manifest", manifest);
        ("workers", J.Int workers) ]
      @ opt_field "retries" (fun r -> J.Int r) retries
      @ [ ("journal", J.Bool journal) ]
    | Qualify { duv; levels; seed; ops; workers; retries } ->
      (("op", J.String "qualify")
      :: Tabv_campaign.Qualify.params_fields ~duv ~levels ~seed ~ops)
      @ [ ("workers", J.Int workers); ("retries", J.Int retries) ]
  in
  J.Assoc fields

let control_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Invalidate -> "invalidate"
  | Shutdown -> "shutdown"

let request_json ~id request =
  match request with
  | Job job ->
    (match job_json job with
     | J.Assoc fields -> J.Assoc (("id", J.Int id) :: fields)
     | _ -> assert false)
  | Control c ->
    J.Assoc [ ("id", J.Int id); ("op", J.String (control_name c)) ]

(* --- request decoding ---------------------------------------------- *)

let decode_props what fields =
  match List.assoc_opt "props" fields with
  | None -> Ok None
  | Some (J.String s) -> Ok (Some s)
  | Some _ -> Error (what ^ ".props: expected a string")

(* A request naming a kernel engine asks for an option that does not
   exist: refuse it rather than run it on the one engine. *)
let refuse_engine op fields =
  if List.mem_assoc "engine" fields then
    Error (op ^ ".engine: unknown field (there is one simulation engine)")
  else Ok ()

let int_default what key ~default fields =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some (J.Int n) -> Ok n
  | Some _ -> Error (Printf.sprintf "%s.%s: expected an integer" what key)

let decode_check what op ~record fields =
  let* () = refuse_engine op fields in
  let* model_name = J.string_field what "model" fields in
  let* model =
    match Tabv_duv.Models.of_name model_name with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "%s: unknown model %S" what model_name)
  in
  let* seed = J.int_field what "seed" fields in
  let* ops = J.int_field what "ops" fields in
  let* props = decode_props what fields in
  let* trace_out =
    if not record then Ok None
    else
      let* path = J.string_field what "trace_out" fields in
      Ok (Some path)
  in
  Ok (Check { model; seed; ops; props; engine = None; trace_out })

let decode_job what op fields =
  match op with
  | "check" -> decode_check what op ~record:false fields
  | "record" -> decode_check what op ~record:true fields
  | "recheck" ->
    let* trace = J.string_field what "trace" fields in
    let* props = decode_props what fields in
    let* workers = int_default what "workers" ~default:1 fields in
    let* retries = int_default what "retries" ~default:1 fields in
    Ok (Recheck { trace; props; workers; retries })
  | "campaign" ->
    let* manifest = J.field what "manifest" fields in
    let* workers = int_default what "workers" ~default:1 fields in
    let* retries =
      match List.assoc_opt "retries" fields with
      | None -> Ok None
      | Some (J.Int n) -> Ok (Some n)
      | Some _ -> Error (what ^ ".retries: expected an integer")
    in
    let* journal =
      match List.assoc_opt "journal" fields with
      | None -> Ok false
      | Some (J.Bool b) -> Ok b
      | Some _ -> Error (what ^ ".journal: expected a boolean")
    in
    Ok (Campaign { manifest; workers; retries; journal })
  | "qualify" ->
    let* duv, levels, seed, ops =
      Tabv_campaign.Qualify.params_of_fields what fields
    in
    let* workers = int_default what "workers" ~default:1 fields in
    let* retries = int_default what "retries" ~default:1 fields in
    Ok (Qualify { duv; levels; seed; ops; workers; retries })
  | other -> Error (Printf.sprintf "%s: unknown op %S" what other)

let request_of_json json =
  let what = "request" in
  let* fields = J.open_assoc what json in
  let* id = J.int_field what "id" fields in
  let* op = J.string_field what "op" fields in
  let* request =
    match op with
    | "ping" -> Ok (Control Ping)
    | "stats" -> Ok (Control Stats)
    | "invalidate" -> Ok (Control Invalidate)
    | "shutdown" -> Ok (Control Shutdown)
    | op ->
      let* job = decode_job what op fields in
      Ok (Job job)
  in
  Ok (id, request)

(* --- hello / events ------------------------------------------------ *)

let hello_json =
  J.Assoc
    [ ("hello", J.String hello_name); ("protocol", J.Int protocol_version) ]

let check_hello json =
  let what = "hello" in
  let* fields = J.open_assoc what json in
  let* name = J.string_field what "hello" fields in
  let* () =
    if name = hello_name then Ok ()
    else Error (Printf.sprintf "not a tabv-serve endpoint (hello %S)" name)
  in
  let* protocol = J.int_field what "protocol" fields in
  if protocol = protocol_version then Ok ()
  else
    Error
      (Printf.sprintf
         "serve protocol version mismatch: server speaks v%d, this client \
          speaks v%d"
         protocol protocol_version)

(* Server-to-client events.  [report] in a result event is the exact
   text a one-shot CLI run would have written to its --report-json
   file (trailing newline included) shipped as a JSON string — it is
   never re-encoded, so warm replies are byte-identical to cold ones
   and to the CLI by construction. *)
type event =
  | Accepted of { position : int }
  | Rejected of { retry_after_ms : int }
  | Started
  | Result of { ok : bool; warm : bool; report : string }
  | Error of { message : string }
  | Pong
  | Stats_reply of J.json
  | Invalidated of { entries : int }
  | Shutting_down

let event_json ~id event =
  let fields =
    match event with
    | Accepted { position } ->
      [ ("event", J.String "accepted"); ("position", J.Int position) ]
    | Rejected { retry_after_ms } ->
      [ ("event", J.String "rejected"); ("retry_after_ms", J.Int retry_after_ms) ]
    | Started -> [ ("event", J.String "started") ]
    | Result { ok; warm; report } ->
      [ ("event", J.String "result"); ("ok", J.Bool ok); ("warm", J.Bool warm);
        ("report", J.String report) ]
    | Error { message } ->
      [ ("event", J.String "error"); ("message", J.String message) ]
    | Pong -> [ ("event", J.String "pong") ]
    | Stats_reply metrics ->
      [ ("event", J.String "stats"); ("metrics", metrics) ]
    | Invalidated { entries } ->
      [ ("event", J.String "invalidated"); ("entries", J.Int entries) ]
    | Shutting_down -> [ ("event", J.String "shutting_down") ]
  in
  J.Assoc (("id", J.Int id) :: fields)

let event_of_json json =
  let what = "event" in
  let* fields = J.open_assoc what json in
  let* id = J.int_field what "id" fields in
  let* kind = J.string_field what "event" fields in
  let* event =
    match kind with
    | "accepted" ->
      let* position = J.int_field what "position" fields in
      Ok (Accepted { position })
    | "rejected" ->
      let* retry_after_ms = J.int_field what "retry_after_ms" fields in
      Ok (Rejected { retry_after_ms })
    | "started" -> Ok Started
    | "result" ->
      let* ok = J.bool_field what "ok" fields in
      let* warm = J.bool_field what "warm" fields in
      let* report = J.string_field what "report" fields in
      Ok (Result { ok; warm; report })
    | "error" ->
      let* message = J.string_field what "message" fields in
      Ok (Error { message })
    | "pong" -> Ok Pong
    | "stats" ->
      let* metrics = J.field what "metrics" fields in
      Ok (Stats_reply metrics)
    | "invalidated" ->
      let* entries = J.int_field what "entries" fields in
      Ok (Invalidated { entries })
    | "shutting_down" -> Ok Shutting_down
    | other -> Error (Printf.sprintf "%s: unknown event %S" what other)
  in
  Ok (id, event)
