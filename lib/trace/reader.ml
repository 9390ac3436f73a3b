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
  mutable bits : Bytes.t;  (* a sample's change mask, then its bool bits *)
  mutable env_cache : (string * Expr.value) list;  (* last emitted env ... *)
  mutable env_current : bool;  (* ... and whether [values] still holds it *)
  mutable have_prev : bool;
  mutable prev_time : int;
  mutable labels : string array;
  mutable prev_span_start : int;
  mutable span_label : string;  (* the last span decoded *)
  mutable span_start : int;
  mutable span_end : int;
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

(* [len] bytes into [dst] at [at], or a truncation reported at the
   offset they start at. *)
let read_into ?(eof = eof_message) t dst ~at len =
  let start = pos t in
  let filled = ref 0 in
  while !filled < len do
    if t.cur >= t.lim && not (refill t) then corrupt_at t start eof;
    let k = min (len - !filled) (t.lim - t.cur) in
    Bytes.blit t.buf t.cur dst (at + !filled) k;
    t.cur <- t.cur + k;
    filled := !filled + k
  done

let really_read ?eof t len =
  let b = Bytes.create len in
  read_into ?eof t b ~at:0 len;
  Bytes.unsafe_to_string b

(* The 4 CRC bytes closing a block: compared against the CRC of the
   block's body, excluded from it themselves.  A verified block
   extends the salvageable prefix. *)
let end_block t =
  fold t;
  let expect = Crc32.Raw.finish t.crc in
  let stored =
    if t.lim - t.cur >= Layout.crc_bytes then begin
      let v = Int32.to_int (Bytes.get_int32_le t.buf t.cur) in
      t.cur <- t.cur + Layout.crc_bytes;
      v
    end
    else Int32.to_int (String.get_int32_le (really_read t Layout.crc_bytes) 0)
  in
  if stored land 0xFFFF_FFFF <> expect then
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
      bits = Bytes.empty;
      env_cache = [];
      env_current = true;
      have_prev = false;
      prev_time = 0;
      labels = [||];
      prev_span_start = 0;
      span_label = "";
      span_start = 0;
      span_end = 0;
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
let values t = t.values
let time t = t.prev_time
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
  t.values <- Array.make n (Expr.VBool false);
  t.bits <- Bytes.create (2 * ((n + 7) / 8))

let bit b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0
let vtrue = Expr.VBool true
let vfalse = Expr.VBool false

(* Decode a sample into [values] and say whether its change mask has
   a bit set.  The mask and the bool bits go into the reader's own
   [bits] buffer, so an all-zero mask allocates nothing and skips the
   value loops. *)
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
  let mask_len = (n + 7) / 8 in
  let bits = t.bits in
  read_into t bits ~at:0 mask_len;
  (* Only the [n] mask bits count, not the last byte's padding. *)
  let any = ref false in
  for k = 0 to mask_len - 1 do
    let valid = if k = mask_len - 1 && n land 7 <> 0 then (1 lsl (n land 7)) - 1 else 0xFF in
    if Char.code (Bytes.unsafe_get bits k) land valid <> 0 then any := true
  done;
  let changed = !any in
  if changed then begin
    let changed_bools = ref 0 in
    for i = 0 to n - 1 do
      if bit bits i && t.dict.(i).kind = Layout.kind_bool then incr changed_bools
    done;
    read_into t bits ~at:mask_len ((!changed_bools + 7) / 8);
    let j = ref 0 in
    for i = 0 to n - 1 do
      if bit bits i && t.dict.(i).kind = Layout.kind_bool then begin
        t.values.(i) <- (if bit bits ((8 * mask_len) + !j) then vtrue else vfalse);
        incr j
      end
    done;
    for i = 0 to n - 1 do
      if bit bits i && t.dict.(i).kind = Layout.kind_int then
        t.values.(i) <- Expr.VInt (read_zigzag t)
    done;
    t.env_current <- false
  end;
  if first && n > 0 then
    (* The first sample must carry every signal. *)
    for i = 0 to n - 1 do
      if not (bit bits i) then corrupt t "first sample is missing signals"
    done;
  t.have_prev <- true;
  t.prev_time <- time;
  t.n_samples <- t.n_samples + 1;
  changed

let read_span t =
  let id = read_uint t in
  if id < 0 || id >= Array.length t.labels then corrupt t "unknown span label";
  let start_time = t.prev_span_start + read_zigzag t in
  let duration = read_uint t in
  if duration < 0 then corrupt t "negative span duration";
  t.prev_span_start <- start_time;
  t.n_spans <- t.n_spans + 1;
  t.span_label <- t.labels.(id);
  t.span_start <- start_time;
  t.span_end <- start_time + duration

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

type record =
  | Dictionary
  | Label
  | Changed_sample
  | Unchanged_sample
  | Span_record
  | End_record

(* The one decoder: one CRC-framed record per call.  Each tag opens a
   new block, and a record is only reported once [end_block] has
   verified it, so a corrupted record can never escape as decoded
   data. *)
let read_record t =
  if t.cur >= t.lim && not (refill t) then corrupt t "truncated (no end record)";
  t.crc <- Crc32.Raw.start;
  t.crc_from <- t.cur;
  let tag = Bytes.unsafe_get t.buf t.cur in
  t.cur <- t.cur + 1;
  if tag = Layout.tag_sample then begin
    let changed = read_sample t in
    end_block t;
    if changed then Changed_sample else Unchanged_sample
  end
  else if tag = Layout.tag_span then begin
    read_span t;
    end_block t;
    Span_record
  end
  else if tag = Layout.tag_dict then begin
    read_dict t;
    end_block t;
    Dictionary
  end
  else if tag = Layout.tag_label then begin
    let label = read_string t in
    end_block t;
    t.labels <- Array.append t.labels [| label |];
    Label
  end
  else if tag = Layout.tag_end then begin
    read_end t;
    End_record
  end
  else corrupt t (Printf.sprintf "unknown record tag 0x%02x" (Char.code tag))

let live t = not (t.finished || t.closed)

let dictionary t =
  (* The dictionary precedes the first sample, so this consumes no
     sample; spans before it are decoded, counted and verified. *)
  while live t && not t.dict_read do
    ignore (read_record t)
  done;
  signals t

type step =
  | Changed
  | Unchanged
  | End

let rec step t =
  if not (live t) then End
  else
    match read_record t with
    | Changed_sample -> Changed
    | Unchanged_sample -> Unchanged
    | End_record -> End
    | Dictionary | Label | Span_record -> step t

(* An env is rebuilt only when [values] changed since the last one
   was built; a sample with no changes re-emits the previous env
   physically. *)
let sample_entry t =
  if not t.env_current then begin
    t.env_cache <-
      List.init (Array.length t.dict) (fun i -> (t.dict.(i).name, t.values.(i)));
    t.env_current <- true
  end;
  Entry.Sample { time = t.prev_time; env = t.env_cache }

let rec next t =
  if not (live t) then None
  else
    match read_record t with
    | Changed_sample | Unchanged_sample -> Some (sample_entry t)
    | Span_record ->
      Some
        (Entry.Span
           { label = t.span_label; start_time = t.span_start; end_time = t.span_end })
    | End_record -> None
    | Dictionary | Label -> next t

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

let catch_read_error f =
  try f () with
  | Format_error { path; message; offset; valid_prefix } ->
    Error
      (Printf.sprintf "%s: %s (at byte %d; verified prefix %d bytes)" path
         message offset valid_prefix)
  | Sys_error message -> Error message
