(* Length-prefixed frame protocol shared by every tabv peer-to-peer
   channel: the subprocess-executor worker pipes and the [tabv serve]
   client sockets.

   One header: 2 lowercase hex digits (protocol version) + 8 lowercase
   hex digits (payload byte length) + '\n'.  Every frame names the
   protocol it speaks, and a mismatch surfaces as a {!Protocol_error}
   naming both versions instead of a garbled stream.  The header is
   fixed-width so a reader consumes an exact header before the body —
   no scanning, no ambiguity with payload bytes. *)

let versioned_header_length = 11

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

(* [hex_field s off len] decodes [len] lowercase hex digits of [s]
   starting at [off]; [None] on any non-hex byte. *)
let hex_field s off len =
  let rec go acc i =
    if i = len then Some acc
    else
      match hex_value s.[off + i] with
      | Some v -> go ((acc * 16) + v) (i + 1)
      | None -> None
  in
  go 0 0

let encode ~version payload =
  if version < 0 || version > 0xff then
    invalid_arg "Frame.encode: version must be in [0, 255]";
  Printf.sprintf "%02x%08x\n%s" version (String.length payload) payload

let decode_versioned_header header =
  if
    String.length header <> versioned_header_length
    || header.[versioned_header_length - 1] <> '\n'
  then None
  else
    match (hex_field header 0 2, hex_field header 2 8) with
    | Some v, Some len -> Some (v, len)
    | _ -> None

exception Protocol_error of string

let version_mismatch ~got ~expected =
  Protocol_error
    (Printf.sprintf
       "frame protocol version mismatch: peer speaks v%d, this side speaks \
        v%d"
       got expected)

let write ~version oc payload =
  output_string oc (encode ~version payload);
  flush oc

(* Blocking channel read of one frame; [None] on a clean EOF at a
   frame boundary. *)
let read ~expect_version ic =
  match really_input_string ic versioned_header_length with
  | exception End_of_file -> None
  | header ->
    let len =
      match decode_versioned_header header with
      | Some (v, _) when v <> expect_version ->
        raise (version_mismatch ~got:v ~expected:expect_version)
      | Some (_, len) -> len
      | None -> failwith "frame: malformed versioned header"
    in
    (match really_input_string ic len with
     | payload -> Some payload
     | exception End_of_file -> failwith "frame: truncated body")

(* Incremental frame accumulator for non-blocking reads: feed raw
   chunks, pop complete frames.

   [max_frame] bounds the body length a header may announce.  Without
   it a single corrupted (or hostile) length prefix — "01ffffffff\n" —
   would make the decoder buffer 4 GiB before ever popping a frame;
   with it the oversized header is a {!Protocol_error} the moment it
   is decoded, while the buffered bytes are still tiny. *)
type stream = {
  mutable buffered : string;
  expect_version : int;
  max_frame : int option;
}

let stream ~expect_version ?max_frame () =
  (match max_frame with
   | Some m when m < 0 -> invalid_arg "Frame.stream: max_frame must be >= 0"
   | _ -> ());
  { buffered = ""; expect_version; max_frame }

let stream_length s = String.length s.buffered
let feed s chunk = if chunk <> "" then s.buffered <- s.buffered ^ chunk

let pop s =
  let len = String.length s.buffered in
  let hlen = versioned_header_length in
  if len < hlen then None
  else begin
    let body =
      match decode_versioned_header (String.sub s.buffered 0 hlen) with
      | Some (v, _) when v <> s.expect_version ->
        raise (version_mismatch ~got:v ~expected:s.expect_version)
      | Some (_, body) -> body
      | None -> raise (Protocol_error "malformed versioned frame header")
    in
    (match s.max_frame with
     | Some bound when body > bound ->
       raise
         (Protocol_error
            (Printf.sprintf
               "frame body of %d bytes exceeds the %d-byte frame bound" body
               bound))
     | _ -> ());
    if len < hlen + body then None
    else begin
      let payload = String.sub s.buffered hlen body in
      s.buffered <- String.sub s.buffered (hlen + body) (len - hlen - body);
      Some payload
    end
  end
