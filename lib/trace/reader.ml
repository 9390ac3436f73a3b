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

type t = {
  ic : in_channel;
  path : string;
  meta : Meta.t;
  tbl : int array;  (* cached CRC table for the per-byte fold *)
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
  mutable pos : int;  (* bytes consumed *)
  mutable crc : int;  (* raw CRC register of the current block *)
  mutable last_good : int;  (* offset after the last verified block *)
  mutable finished : bool;
  mutable closed : bool;
}

let corrupt t message =
  raise
    (Format_error
       { path = t.path; message; offset = t.pos; valid_prefix = t.last_good })

(* All reads funnel through [byte] / [really_read]: they keep [pos]
   and the running block CRC, so corruption reports carry the exact
   offset and the verified (salvageable) prefix.  A clean EOF is only
   legal where [next] checks for it explicitly, so EOF maps to
   truncation.  [t.crc] holds the raw (uncomplemented) register —
   see {!Crc32.Raw} — so the per-byte fold is one table lookup. *)
let byte t () =
  match input_char t.ic with
  | c ->
    t.pos <- t.pos + 1;
    t.crc <-
      Array.unsafe_get t.tbl ((t.crc lxor Char.code c) land 0xFF)
      lxor (t.crc lsr 8);
    c
  | exception End_of_file -> corrupt t "truncated (unexpected end of file)"

let really_read t len =
  let b = Bytes.create len in
  match really_input t.ic b 0 len with
  | () ->
    let s = Bytes.unsafe_to_string b in
    t.pos <- t.pos + len;
    t.crc <- Crc32.Raw.feed_string t.tbl t.crc s ~pos:0 ~len;
    s
  | exception End_of_file -> corrupt t "truncated (unexpected end of file)"

(* The 4 CRC bytes closing a block: compared against the running CRC
   of the block's body, excluded from it themselves.  A verified block
   extends the salvageable prefix. *)
let end_block t =
  let expect = Crc32.Raw.finish t.crc in
  let b = Bytes.create Layout.crc_bytes in
  (match really_input t.ic b 0 Layout.crc_bytes with
   | () -> t.pos <- t.pos + Layout.crc_bytes
   | exception End_of_file -> corrupt t "truncated (unexpected end of file)");
  let stored = ref 0 in
  for i = Layout.crc_bytes - 1 downto 0 do
    stored := (!stored lsl 8) lor Char.code (Bytes.get b i)
  done;
  if !stored <> expect then corrupt t "record checksum mismatch";
  t.crc <- Crc32.Raw.start;
  t.last_good <- t.pos

let read_uint t =
  match Varint.read_uint (byte t) with
  | v -> v
  | exception Varint.Corrupt msg -> corrupt t msg

let read_zigzag t =
  match Varint.read_zigzag (byte t) with
  | v -> v
  | exception Varint.Corrupt msg -> corrupt t msg

let read_string t =
  let len = read_uint t in
  if len < 0 || len > Layout.max_string then corrupt t "oversized string field";
  really_read t len

let open_file path =
  let ic = open_in_bin path in
  let t =
    {
      ic;
      path;
      meta = { Meta.model = ""; seed = 0; ops = 0; engine = "" };
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
      pos = 0;
      tbl = Crc32.Raw.table ();
      crc = Crc32.Raw.start;
      last_good = 0;
      finished = false;
      closed = false;
    }
  in
  try
    let magic = Bytes.create (String.length Layout.magic) in
    (match really_input ic magic 0 (Bytes.length magic) with
     | () -> t.pos <- Bytes.length magic
     | exception End_of_file -> corrupt t "not a tabv trace (file too short)");
    let magic = Bytes.unsafe_to_string magic in
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
    { t with meta = { Meta.model; seed; ops; engine } }
  with e ->
    close_in_noerr ic;
    raise e

let meta t = t.meta
let signals t = Array.to_list (Array.map (fun e -> e.name) t.dict)
let samples t = t.n_samples
let spans t = t.n_spans
let valid_prefix t = t.last_good

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_in_noerr t.ic
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

let read_bits t count =
  let bytes = (count + 7) / 8 in
  let packed = really_read t bytes in
  fun i -> Char.code packed.[i / 8] land (1 lsl (i mod 8)) <> 0

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
  let changed = read_bits t n in
  let changed_bools = ref [] in
  let changed_ints = ref 0 in
  for i = n - 1 downto 0 do
    if changed i then
      if t.dict.(i).kind = Layout.kind_bool then
        changed_bools := i :: !changed_bools
      else incr changed_ints
  done;
  let changed_bools = Array.of_list !changed_bools in
  let bool_bits = read_bits t (Array.length changed_bools) in
  Array.iteri
    (fun j i -> t.values.(i) <- Expr.VBool (bool_bits j))
    changed_bools;
  for i = 0 to n - 1 do
    if changed i && t.dict.(i).kind = Layout.kind_int then
      t.values.(i) <- Expr.VInt (read_zigzag t)
  done;
  if (not t.have_prev) && n > 0 then
    (* The first sample must carry every signal. *)
    for i = 0 to n - 1 do
      if not (changed i) then corrupt t "first sample is missing signals"
    done;
  t.have_prev <- true;
  t.prev_time <- time;
  t.n_samples <- t.n_samples + 1;
  (* A change-mask-0 sample re-emits the previous env, physically —
     no allocation, and downstream consumers (offline checking reuses
     the previous valuation) can detect stuttering with one pointer
     compare. *)
  let env =
    if (not first) && Array.length changed_bools = 0 && !changed_ints = 0 then
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
  (match input_char t.ic with
   | _ ->
     t.pos <- t.pos + 1;
     corrupt t "trailing bytes after end record"
   | exception End_of_file -> ());
  t.finished <- true

(* Each tag opens a new CRC-framed block; the entry is only surfaced
   once [end_block] has verified it, so a corrupted record can never
   escape as decoded data. *)
let rec next t =
  if t.finished || t.closed then None
  else begin
    t.crc <- Crc32.Raw.start;
    match input_char t.ic with
    | exception End_of_file ->
      corrupt t "truncated (no end record)"
    | tag ->
      t.pos <- t.pos + 1;
      t.crc <-
        Array.unsafe_get t.tbl ((t.crc lxor Char.code tag) land 0xFF)
        lxor (t.crc lsr 8);
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

let read_trace path =
  with_file path (fun t ->
      let entries = ref [] in
      let rec drain () =
        match next t with
        | None -> ()
        | Some (Entry.Sample { time; env }) ->
          entries := { Trace.time; env } :: !entries;
          drain ()
        | Some (Entry.Span _) -> drain ()
      in
      drain ();
      (t.meta, Trace.of_list (List.rev !entries)))
