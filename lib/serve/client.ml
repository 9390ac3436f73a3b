(* Blocking client for the tabv-serve protocol.

   Connects, validates the server's hello (frame version is checked by
   the stream decoder, application protocol by {!Protocol.check_hello}),
   then exchanges one request at a time: [request] submits a job and
   blocks through the accepted/started progress events until a
   terminal event arrives; [control] does the same for control ops.
   Request ids are allocated per connection. *)

module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame

type endpoint =
  [ `Unix of string  (* socket path *)
  | `Tcp of string * int ]

(* One wire-level step of a (possibly fault-injected) send.
   Structurally compatible with {!Tabv_fault.Fault.Net.action} without
   a library dependency in either direction. *)
type wire_action =
  [ `Chunk of string
  | `Delay_ms of int
  | `Reset ]

type t = {
  fd : Unix.file_descr;
  stream : Frame.stream;
  mutable next_id : int;
  mutable wire : (string -> wire_action list) option;
}

type reply =
  | Result of { ok : bool; warm : bool; report : string }
  | Rejected of { retry_after_ms : int }
  | Failed of string

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* [interpose t f] routes every outbound frame through [f] — the
   chaos-harness hook, in the style of [Signal.interpose].  [f]
   receives the encoded frame and answers the wire actions to execute
   instead of the single plain write.  Production paths never install
   one. *)
let interpose t f = t.wire <- Some f

let send t payload =
  let frame = Frame.encode ~version:Protocol.frame_version payload in
  match t.wire with
  | None -> write_all t.fd frame 0 (String.length frame)
  | Some f ->
    let rec exec = function
      | [] -> ()
      | `Chunk s :: rest ->
        write_all t.fd s 0 (String.length s);
        exec rest
      | `Delay_ms ms :: rest ->
        Unix.sleepf (float_of_int ms /. 1000.);
        exec rest
      | `Reset :: _ ->
        (* Injected mid-request connection loss: hard-close both
           directions and surface the same error the caller would see
           from a genuine peer reset. *)
        (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        raise (Unix.Unix_error (Unix.EPIPE, "send", "injected reset"))
    in
    exec (f frame)

(* Next complete frame, reading as needed.  [None] on orderly EOF. *)
let read_frame t =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Frame.pop t.stream with
    | Some payload -> Some payload
    | None ->
      (match Unix.read t.fd buf 0 65536 with
       | 0 -> None
       | n ->
         Frame.feed t.stream (Bytes.sub_string buf 0 n);
         go ())
  in
  go ()

(* Resolve + connect, closing the socket on failure.  Raises [Failure]
   with a presentable message (unresolvable host, connection refused);
   [connect] turns it into the [Error] result. *)
let connect_fd (endpoint : endpoint) =
  let describe () =
    match endpoint with
    | `Unix path -> path
    | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  in
  let with_fd fd addr =
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith
        (Printf.sprintf "cannot connect to %s: %s" (describe ())
           (Unix.error_message e))
  in
  match endpoint with
  | `Unix path ->
    with_fd
      (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
      (Unix.ADDR_UNIX path)
  | `Tcp (host, port) ->
    let addr =
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
        (* Not resolvable: accept a literal IP, otherwise a clean
           error (inet_addr_of_string's bare [Failure] names no
           host). *)
        (try Unix.inet_addr_of_string host
         with Failure _ ->
           failwith (Printf.sprintf "cannot resolve host %s" host))
    in
    with_fd
      (Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0)
      (Unix.ADDR_INET (addr, port))

let connect (endpoint : endpoint) =
  (* A socket client must see a peer hangup as an error reply, not a
     process-killing signal: a drained daemon may close the connection
     while a request is still being written. *)
  if Sys.os_type <> "Win32" then
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
  match connect_fd endpoint with
  | exception Failure msg -> Error msg
  | fd ->
  let t =
    { fd; stream = Frame.stream ~expect_version:Protocol.frame_version ();
      next_id = 0; wire = None }
  in
  match read_frame t with
  | None ->
    Unix.close fd;
    Error "server closed the connection before saying hello"
  | exception e ->
    Unix.close fd;
    Error (Printexc.to_string e)
  | Some payload ->
    (match
       match J.of_string payload with
       | exception J.Parse_error _ -> Error "unparsable hello from server"
       | json -> Protocol.check_hello json
     with
     | Ok () -> Ok t
     | Error e ->
       Unix.close fd;
       Error e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Raw protocol access (tests, benches, multi-request pipelining):
   fire a request without waiting, and read the next event whoever it
   belongs to. *)
let send_request t ~id request =
  send t (J.to_string (Protocol.request_json ~id request))

let next_event t =
  match read_frame t with
  | None -> Error "server closed the connection"
  | exception e -> Error (Printexc.to_string e)
  | Some payload ->
    (match J.of_string payload with
     | exception J.Parse_error _ -> Error "unparsable event from server"
     | json -> Protocol.event_of_json json)

(* Wait for this request's terminal event, skipping progress events
   ([accepted], [started]) and other requests' events. *)
let await_terminal t ~id =
  let rec go () =
    match read_frame t with
    | None -> Failed "server closed the connection mid-request"
    | exception e -> Failed (Printexc.to_string e)
    | Some payload ->
      (match J.of_string payload with
       | exception J.Parse_error _ -> Failed "unparsable event from server"
       | json ->
         (match Protocol.event_of_json json with
          | Error e -> Failed e
          | Ok (event_id, _) when event_id <> id -> go ()
          | Ok (_, Protocol.Result { ok; warm; report }) ->
            Result { ok; warm; report }
          | Ok (_, Protocol.Rejected { retry_after_ms }) ->
            Rejected { retry_after_ms }
          | Ok (_, Protocol.Error { message }) -> Failed message
          | Ok (_, (Protocol.Accepted _ | Protocol.Started)) -> go ()
          | Ok (_, Protocol.Pong)
          | Ok (_, Protocol.Stats_reply _)
          | Ok (_, Protocol.Invalidated _)
          | Ok (_, Protocol.Shutting_down) ->
            Failed "unexpected control event for a job request"))
  in
  go ()

let request t job =
  let id = fresh_id t in
  match send t (J.to_string (Protocol.request_json ~id (Protocol.Job job))) with
  | exception Unix.Unix_error (e, _, _) ->
    Failed
      (Printf.sprintf "cannot reach the server: %s" (Unix.error_message e))
  | () -> await_terminal t ~id

(* Deterministic decorrelated-jitter retry delay (AWS architecture
   blog vintage): d1 = base, dn = min(cap, base + u * (3 * d(n-1) -
   base)) where u in [0, 1) is a hash of (seed, task, n).  Compared to
   plain exponential-with-fixed-jitter, successive delays from
   different seeds decorrelate quickly — a fleet of clients rejected
   at the same instant does not re-stampede on the same schedule.
   [0.] when [base_s <= 0.] or [attempt < 1]. *)
let backoff_s ~seed ~task ~base_s ~attempt =
  if base_s <= 0. || attempt < 1 then 0.
  else begin
    let cap = 32. *. base_s in
    let frac n =
      float_of_int (Hashtbl.hash (seed, task, n) land 0xFFFF) /. 65536.
    in
    let rec grow d n =
      if n > attempt then d
      else grow (Float.min cap (base_s +. (frac n *. ((3. *. d) -. base_s)))) (n + 1)
    in
    grow base_s 2
  end

(* Submit with bounded retries on backpressure.  With [backoff_seed]
   the server's advice seeds {!backoff_s} so a fleet of clients
   rejected at the same instant spreads out instead of re-stampeding
   in lockstep; without it the raw advice is honored as-is
   (deterministic, for tests). *)
let retry_delay_s ?backoff_seed ~attempt retry_after_ms =
  let advice = float_of_int retry_after_ms /. 1000. in
  match backoff_seed with
  | None -> advice
  | Some seed -> backoff_s ~seed ~task:0 ~base_s:advice ~attempt

let request_with_retry ?(attempts = 10) ?backoff_seed t job =
  let rec go attempt =
    match request t job with
    | Rejected { retry_after_ms } when attempt < attempts ->
      Unix.sleepf (retry_delay_s ?backoff_seed ~attempt retry_after_ms);
      go (attempt + 1)
    | reply -> reply
  in
  go 1

type control_reply =
  | Pong
  | Stats of J.json
  | Invalidated of int
  | Shutting_down
  | Control_failed of string

let control t op =
  let id = fresh_id t in
  match
    send t (J.to_string (Protocol.request_json ~id (Protocol.Control op)))
  with
  | exception Unix.Unix_error (e, _, _) ->
    Control_failed
      (Printf.sprintf "cannot reach the server: %s" (Unix.error_message e))
  | () ->
  let rec go () =
    match read_frame t with
    | None -> Control_failed "server closed the connection mid-request"
    | exception e -> Control_failed (Printexc.to_string e)
    | Some payload ->
      (match J.of_string payload with
       | exception J.Parse_error _ ->
         Control_failed "unparsable event from server"
       | json ->
         (match Protocol.event_of_json json with
          | Error e -> Control_failed e
          | Ok (event_id, _) when event_id <> id -> go ()
          | Ok (_, Protocol.Pong) -> Pong
          | Ok (_, Protocol.Stats_reply metrics) -> Stats metrics
          | Ok (_, Protocol.Invalidated { entries }) -> Invalidated entries
          | Ok (_, Protocol.Shutting_down) -> Shutting_down
          | Ok (_, Protocol.Error { message }) -> Control_failed message
          | Ok (_, _) -> Control_failed "unexpected job event for a control op"))
  in
  go ()
