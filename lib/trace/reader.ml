open Tabv_psl
module Crc32 = Tabv_core.Crc32

exception
  Format_error of {
    path : string;
    message : string;
    offset : int;
    valid_prefix : int;
  }

type dict_entry = { name : string; kind : char }

(* The most one read asks of the kernel.  A trace no larger than this
   comes in with one read, into a buffer no larger than the file. *)
let block_bytes = 65536

type t = {
  fd : Unix.file_descr;
  path : string;
  mutable meta : Meta.t;
  tbl : int array;  (* cached CRC table *)
  buf : Bytes.t;  (* the block of the file being decoded *)
  mutable base : int;  (* file offset of [buf]'s first byte *)
  mutable cur : int;  (* next unread byte of [buf] *)
  mutable lim : int;  (* bytes of [buf] holding file data *)
  mutable crc : int;  (* raw CRC register of the current block ... *)
  mutable crc_from : int;  (* ... over its bytes before this index *)
  mutable dict : dict_entry array;
  mutable dict_read : bool;
  mutable values : Expr.value array;  (* current valuation *)
  mutable env_cache : (string * Expr.value) list;  (* last emitted env *)
  mutable have_prev : bool;
  mutable prev_time : int;
  mutable labels : string array;
  mutable prev_span_start : int;
  mutable n_samples : int;
  mutable n_spans : int;
  mutable last_good : int;  (* offset after the last verified block *)
  mutable finished : bool;
  mutable closed : bool;
}

(* Bytes consumed. *)
let pos t = t.base + t.cur

let corrupt_at t offset message =
  raise
    (Format_error
       { path = t.path; message; offset; valid_prefix = t.last_good })

let corrupt t message = corrupt_at t (pos t) message

let rec read_fd t =
  match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_fd t
  | exception Unix.Unix_error (error, _, _) ->
    raise (Sys_error (t.path ^ ": " ^ Unix.error_message error))

(* [t.crc] holds the raw (uncomplemented) register — see {!Crc32.Raw}
   — and is folded a run of bytes at a time: over what the buffer held
   of the block when the buffer is used up, and over the rest at the
   block's end. *)
let fold t =
  t.crc <-
    Crc32.Raw.feed_string t.tbl t.crc (Bytes.unsafe_to_string t.buf)
      ~pos:t.crc_from ~len:(t.cur - t.crc_from);
  t.crc_from <- t.cur

(* All reads funnel through [refill]: [pos] stays the exact offset
   consumed, so corruption reports carry the offset of the damage and
   the verified (salvageable) prefix.  Only called once the buffer is
   used up; false at end of file.  A failed read leaves it empty. *)
let refill t =
  fold t;
  t.base <- t.base + t.cur;
  t.cur <- 0;
  t.crc_from <- 0;
  t.lim <- 0;
  t.lim <- read_fd t;
  t.lim > 0

let eof_message = "truncated (unexpected end of file)"

(* A clean EOF is only legal where [next] and [read_end] check for it
   explicitly, so anywhere else it is truncation. *)
let byte t () =
  if t.cur >= t.lim && not (refill t) then corrupt t eof_message;
  let c = Bytes.unsafe_get t.buf t.cur in
  t.cur <- t.cur + 1;
  c

(* [len] bytes, or a truncation reported at the offset they start
   at. *)
let really_read ?(eof = eof_message) t len =
  let start = pos t in
  let b = Bytes.create len in
  let filled = ref 0 in
  while !filled < len do
    if t.cur >= t.lim && not (refill t) then corrupt_at t start eof;
    let k = min (len - !filled) (t.lim - t.cur) in
    Bytes.blit t.buf t.cur b !filled k;
    t.cur <- t.cur + k;
    filled := !filled + k
  done;
  Bytes.unsafe_to_string b

(* The 4 CRC bytes closing a block: compared against the CRC of the
   block's body, excluded from it themselves.  A verified block
   extends the salvageable prefix. *)
let end_block t =
  fold t;
  let expect = Crc32.Raw.finish t.crc in
  let stored =
    if t.lim - t.cur >= Layout.crc_bytes then begin
      let v = Bytes.get_int32_le t.buf t.cur in
      t.cur <- t.cur + Layout.crc_bytes;
      v
    end
    else String.get_int32_le (really_read t Layout.crc_bytes) 0
  in
  if Int32.to_int stored land 0xFFFF_FFFF <> expect then
    corrupt t "record checksum mismatch";
  t.crc <- Crc32.Raw.start;
  t.crc_from <- t.cur;
  t.last_good <- pos t

(* Most varints are one byte; those skip the per-byte closure. *)
let one_byte t =
  if t.cur < t.lim then begin
    let c = Char.code (Bytes.unsafe_get t.buf t.cur) in
    if c < 0x80 then begin
      t.cur <- t.cur + 1;
      c
    end
    else -1
  end
  else -1

let read_uint t =
  let v = one_byte t in
  if v >= 0 then v
  else
    match Varint.read_uint (byte t) with
    | v -> v
    | exception Varint.Corrupt msg -> corrupt t msg

let read_zigzag t =
  let v = one_byte t in
  if v >= 0 then Varint.unzigzag v
  else
    match Varint.read_zigzag (byte t) with
    | v -> v
    | exception Varint.Corrupt msg -> corrupt t msg

let read_string t =
  let len = read_uint t in
  if len < 0 || len > Layout.max_string then corrupt t "oversized string field";
  really_read t len

let open_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (error, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message error))
  in
  match
    let size = (Unix.fstat fd).Unix.st_size in
    {
      fd;
      path;
      meta = { Meta.model = ""; seed = 0; ops = 0; engine = "" };
      tbl = Crc32.Raw.table ();
      buf = Bytes.create (min block_bytes (max 4096 size));
      base = 0;
      cur = 0;
      lim = 0;
      crc = Crc32.Raw.start;
      crc_from = 0;
      dict = [||];
      dict_read = false;
      values = [||];
      env_cache = [];
      have_prev = false;
      prev_time = 0;
      labels = [||];
      prev_span_start = 0;
      n_samples = 0;
      n_spans = 0;
      last_good = 0;
      finished = false;
      closed = false;
    }
  with
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  | t -> (
    try
      let magic =
        really_read ~eof:"not a tabv trace (file too short)" t
          (String.length Layout.magic)
      in
      (* The magic is not part of any CRC-framed block. *)
      t.crc_from <- t.cur;
      let prefix = String.sub Layout.magic 0 (String.length Layout.magic - 1) in
      if not (String.length magic > 0 && String.sub magic 0 (String.length prefix) = prefix)
      then corrupt t "not a tabv trace (bad magic)";
      let version = Char.code magic.[String.length magic - 1] in
      if version <> Layout.version then
        corrupt t
          (Printf.sprintf "unsupported trace format version %d (this tabv reads %d)"
             version Layout.version);
      (* The meta header is the first CRC-framed block. *)
      let model = read_string t in
      let seed = read_zigzag t in
      let ops = read_uint t in
      let engine = read_string t in
      end_block t;
      t.meta <- { Meta.model; seed; ops; engine };
      t
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e)

let meta t = t.meta
let signals t = Array.to_list (Array.map (fun e -> e.name) t.dict)
let samples t = t.n_samples
let spans t = t.n_spans
let valid_prefix t = t.last_good

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let read_dict t =
  if t.dict_read then corrupt t "duplicate signal dictionary";
  let n = read_uint t in
  if n < 0 || n > Layout.max_dictionary then
    corrupt t "oversized signal dictionary";
  t.dict <-
    Array.init n (fun _ ->
        let name = read_string t in
        let kind = byte t () in
        if kind <> Layout.kind_bool && kind <> Layout.kind_int then
          corrupt t "unknown signal kind";
        { name; kind });
  t.dict_read <- true;
  t.values <- Array.make n (Expr.VBool false)

let bit s i = Char.code (String.unsafe_get s (i lsr 3)) land (1 lsl (i land 7)) <> 0
let vtrue = Expr.VBool true
let vfalse = Expr.VBool false

let read_sample t =
  if not t.dict_read then corrupt t "sample before signal dictionary";
  let dt = read_uint t in
  let time =
    if t.have_prev then begin
      if dt <= 0 then corrupt t "non-increasing sample time";
      t.prev_time + dt
    end
    else dt
  in
  let first = not t.have_prev in
  let n = Array.length t.dict in
  let changed = really_read t ((n + 7) / 8) in
  let changed_bools = ref 0 and changed_ints = ref 0 in
  for i = 0 to n - 1 do
    if bit changed i then
      if t.dict.(i).kind = Layout.kind_bool then incr changed_bools
      else incr changed_ints
  done;
  let bool_bits = really_read t ((!changed_bools + 7) / 8) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if bit changed i && t.dict.(i).kind = Layout.kind_bool then begin
      t.values.(i) <- (if bit bool_bits !j then vtrue else vfalse);
      incr j
    end
  done;
  for i = 0 to n - 1 do
    if bit changed i && t.dict.(i).kind = Layout.kind_int then
      t.values.(i) <- Expr.VInt (read_zigzag t)
  done;
  if first && n > 0 then
    (* The first sample must carry every signal. *)
    for i = 0 to n - 1 do
      if not (bit changed i) then corrupt t "first sample is missing signals"
    done;
  t.have_prev <- true;
  t.prev_time <- time;
  t.n_samples <- t.n_samples + 1;
  (* A change-mask-0 sample re-emits the previous env, physically —
     no allocation, and downstream consumers (offline checking reuses
     the previous valuation) can detect stuttering with one pointer
     compare. *)
  let env =
    if (not first) && !changed_bools = 0 && !changed_ints = 0 then
      t.env_cache
    else List.init n (fun i -> (t.dict.(i).name, t.values.(i)))
  in
  t.env_cache <- env;
  Entry.Sample { time; env }

let read_span t =
  let id = read_uint t in
  if id < 0 || id >= Array.length t.labels then corrupt t "unknown span label";
  let start_time = t.prev_span_start + read_zigzag t in
  let duration = read_uint t in
  if duration < 0 then corrupt t "negative span duration";
  t.prev_span_start <- start_time;
  t.n_spans <- t.n_spans + 1;
  Entry.Span { label = t.labels.(id); start_time; end_time = start_time + duration }

let read_end t =
  let want_samples = read_uint t in
  let want_spans = read_uint t in
  if want_samples <> t.n_samples || want_spans <> t.n_spans then
    corrupt t
      (Printf.sprintf
         "end record disagrees with contents (%d/%d samples, %d/%d spans)"
         t.n_samples want_samples t.n_spans want_spans);
  end_block t;
  if t.cur < t.lim || refill t then begin
    t.cur <- t.cur + 1;
    corrupt t "trailing bytes after end record"
  end;
  t.finished <- true

(* Each tag opens a new CRC-framed block; the entry is only surfaced
   once [end_block] has verified it, so a corrupted record can never
   escape as decoded data. *)
let rec next t =
  if t.finished || t.closed then None
  else begin
    if t.cur >= t.lim && not (refill t) then
      corrupt t "truncated (no end record)";
    t.crc <- Crc32.Raw.start;
    t.crc_from <- t.cur;
    let tag = Bytes.unsafe_get t.buf t.cur in
    t.cur <- t.cur + 1;
    if tag = Layout.tag_dict then begin
      read_dict t;
      end_block t;
      next t
    end
    else if tag = Layout.tag_sample then begin
      let entry = read_sample t in
      end_block t;
      Some entry
    end
    else if tag = Layout.tag_label then begin
      let label = read_string t in
      end_block t;
      t.labels <- Array.append t.labels [| label |];
      next t
    end
    else if tag = Layout.tag_span then begin
      let entry = read_span t in
      end_block t;
      Some entry
    end
    else if tag = Layout.tag_end then begin
      read_end t;
      None
    end
    else corrupt t (Printf.sprintf "unknown record tag 0x%02x" (Char.code tag))
  end

let to_seq t =
  let rec seq () =
    match next t with
    | None -> Seq.Nil
    | Some entry -> Seq.Cons (entry, seq)
  in
  seq

let with_file path f =
  let t = open_file path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let read_trace path = with_file path (fun t -> (t.meta, Entry.to_trace (to_seq t)))
