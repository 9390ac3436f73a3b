open Tabv_psl
module Crc32 = Tabv_core.Crc32
module Io = Tabv_core.Io

type dict_entry = { name : string; kind : char }

(* Staged records go to the file once at least this many bytes have
   built up: one write(2), and one [Fault.Io] decision, per chunk
   instead of per record. *)
let chunk_bytes = 65536

type t = {
  io : Io.t;
  tbl : int array;  (* cached CRC table *)
  mutable stage : Bytes.t;  (* encoded records not yet pushed *)
  mutable staged : int;  (* bytes used in [stage] *)
  mutable record_start : int;  (* where in [stage] the open record begins *)
  mutable bound : bool;  (* the signal names and their order are fixed *)
  mutable names : string array;  (* the bound names, in dictionary order *)
  mutable readers : (unit -> Expr.value) array;  (* a bound table's readers *)
  mutable dict : dict_entry array;  (* [||] until the first sample *)
  mutable dict_written : bool;
  mutable incoming : Expr.value array;  (* the sample being admitted *)
  mutable prev : Expr.value array;  (* last committed sample *)
  mutable have_prev : bool;
  mutable prev_time : int;
  mutable pending : Expr.value array;  (* the sample awaiting a later one *)
  mutable have_pending : bool;
  mutable pending_time : int;
  mutable changed : bool array;  (* per-signal change flags of a commit *)
  labels : (string, int) Hashtbl.t;
  mutable next_label : int;
  mutable prev_span_start : int;
  mutable n_samples : int;
  mutable n_spans : int;
  mutable bytes : int;
  mutable closed : bool;
}

(* --- the stage: whole records, pushed a chunk at a time ------------- *)

(* The stage doubles up to one chunk plus room for the record that
   crosses it; only a record larger than that grows it further. *)
let reserve t n =
  let need = t.staged + n in
  if need > Bytes.length t.stage then begin
    let cap = max need (min (2 * Bytes.length t.stage) (chunk_bytes + 4096)) in
    let grown = Bytes.create cap in
    Bytes.blit t.stage 0 grown 0 t.staged;
    t.stage <- grown
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.stage t.staged c;
  t.staged <- t.staged + 1

let add_uint t v =
  reserve t Varint.max_bytes;
  t.staged <- Varint.write_uint t.stage t.staged v

let add_zigzag t v =
  reserve t Varint.max_bytes;
  t.staged <- Varint.write_zigzag t.stage t.staged v

let add_string t s =
  let len = String.length s in
  add_uint t len;
  reserve t len;
  Bytes.blit_string s 0 t.stage t.staged len;
  t.staged <- t.staged + len

(* [len] zero bytes to set bits in, at the returned offset. *)
let add_bits t len =
  reserve t len;
  let at = t.staged in
  Bytes.fill t.stage at len '\000';
  t.staged <- at + len;
  at

let set_bit b at i =
  let k = at + (i lsr 3) in
  Bytes.unsafe_set b k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (i land 7))))

(* Hand the staged bytes to the file as one chunk.  They count as
   consumed even when the write fails, as with [Io.flush]. *)
let push t =
  let len = t.staged in
  t.staged <- 0;
  t.record_start <- 0;
  if len > 0 then Io.flush_bytes t.io t.stage ~len

(* Close the record opened at [record_start] with the CRC of its body,
   little-endian, computed in place; push once a chunk has built up.
   Every chunk therefore ends on a record boundary, and a torn file is
   still a CRC-verified prefix of whole records. *)
let end_record t =
  let body = t.staged - t.record_start in
  let crc =
    Crc32.Raw.finish
      (Crc32.Raw.feed_string t.tbl Crc32.Raw.start
         (Bytes.unsafe_to_string t.stage) ~pos:t.record_start ~len:body)
  in
  reserve t Layout.crc_bytes;
  Bytes.set_int32_le t.stage t.staged (Int32.of_int crc);
  t.staged <- t.staged + Layout.crc_bytes;
  t.bytes <- t.bytes + body + Layout.crc_bytes;
  if t.staged >= chunk_bytes then push t;
  t.record_start <- t.staged

let create ~path meta =
  let io = Io.create path in
  let t =
    {
      io;
      tbl = Crc32.Raw.table ();
      stage = Bytes.create 4096;
      staged = 0;
      record_start = 0;
      bound = false;
      names = [||];
      readers = [||];
      dict = [||];
      dict_written = false;
      incoming = [||];
      prev = [||];
      have_prev = false;
      prev_time = 0;
      pending = [||];
      have_pending = false;
      pending_time = 0;
      changed = [||];
      labels = Hashtbl.create 8;
      next_label = 0;
      prev_span_start = 0;
      n_samples = 0;
      n_spans = 0;
      bytes = 0;
      closed = false;
    }
  in
  (* The magic is raw (no CRC — a reader must be able to recognize the
     format before trusting any framing); the meta header is the first
     CRC-framed block.  Both are staged together, so the first chunk
     too ends on a record boundary. *)
  reserve t (String.length Layout.magic);
  Bytes.blit_string Layout.magic 0 t.stage 0 (String.length Layout.magic);
  t.staged <- String.length Layout.magic;
  t.record_start <- t.staged;
  t.bytes <- t.staged;
  add_string t meta.Meta.model;
  add_zigzag t meta.Meta.seed;
  add_uint t meta.Meta.ops;
  add_string t meta.Meta.engine;
  end_record t;
  t

let check_open t = if t.closed then invalid_arg "Trace writer: already closed"

let kind_of_value = function
  | Expr.VBool _ -> Layout.kind_bool
  | Expr.VInt _ -> Layout.kind_int

(* Fix the signal names and their order, and size the three value
   arrays: the sample being admitted, the pending one and the last
   committed one. *)
let bind_names t names =
  let n = Array.length names in
  t.bound <- true;
  t.names <- names;
  t.incoming <- Array.make n (Expr.VBool false);
  t.pending <- Array.make n (Expr.VBool false);
  t.prev <- Array.make n (Expr.VBool false);
  t.changed <- Array.make n false

let bind t signals =
  check_open t;
  if t.bound then invalid_arg "Trace writer: signals already bound";
  bind_names t (Array.of_list (List.map fst signals));
  t.readers <- Array.of_list (List.map snd signals)

(* The dictionary takes its kinds from the first sample admitted. *)
let write_dict t =
  t.dict <-
    Array.mapi
      (fun i name -> { name; kind = kind_of_value t.incoming.(i) })
      t.names;
  let n = Array.length t.dict in
  if n > Layout.max_dictionary then invalid_arg "Trace writer: too many signals";
  add_char t Layout.tag_dict;
  add_uint t n;
  Array.iter
    (fun e ->
      add_string t e.name;
      add_char t e.kind)
    t.dict;
  end_record t;
  t.dict_written <- true

(* Once the dictionary is written, every value keeps its signal's
   kind. *)
let check_kind t i v =
  if t.dict_written && kind_of_value v <> (Array.unsafe_get t.dict i).kind then
    invalid_arg
      (Printf.sprintf "Trace writer: signal %S changed kind"
         (Array.unsafe_get t.names i))

(* Encode the pending sample: delta time, change mask, then the
   changed bool values bit-packed and the changed ints as zigzag
   varints, all in dictionary order.  The two value arrays then swap
   roles: the committed sample becomes [prev], and the old [prev] is
   free for the next pending one. *)
let commit t =
  let time = t.pending_time and values = t.pending and prev = t.prev in
  if (not t.have_prev) && time < 0 then
    invalid_arg "Trace writer: negative time";
  add_char t Layout.tag_sample;
  add_uint t (if t.have_prev then time - t.prev_time else time);
  let n = Array.length t.dict in
  let mask = add_bits t ((n + 7) / 8) in
  let n_bools = ref 0 in
  for i = 0 to n - 1 do
    let c =
      (not t.have_prev)
      || not (Expr.equal_value (Array.unsafe_get values i) (Array.unsafe_get prev i))
    in
    Array.unsafe_set t.changed i c;
    if c then begin
      set_bit t.stage mask i;
      match Array.unsafe_get values i with
      | Expr.VBool _ -> incr n_bools
      | Expr.VInt _ -> ()
    end
  done;
  let bools = add_bits t ((!n_bools + 7) / 8) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get t.changed i then
      match Array.unsafe_get values i with
      | Expr.VBool b ->
        if b then set_bit t.stage bools !j;
        incr j
      | Expr.VInt _ -> ()
  done;
  for i = 0 to n - 1 do
    if Array.unsafe_get t.changed i then
      match Array.unsafe_get values i with
      | Expr.VInt v -> add_zigzag t v
      | Expr.VBool _ -> ()
  done;
  end_record t;
  t.prev <- values;
  t.pending <- prev;
  t.have_prev <- true;
  t.prev_time <- time

let flush_pending t =
  if t.have_pending then begin
    t.have_pending <- false;
    commit t
  end

(* Admit the sample filled into [incoming] at [time]: the one path
   both taps take once the values are in place.  A same-instant sample
   overwrites the pending one (last-wins); a later one proves it final
   and commits it.  The admitted array becomes the pending one. *)
let admit t ~time =
  if not t.dict_written then write_dict t;
  if t.have_pending then begin
    if time < t.pending_time then
      invalid_arg
        (Printf.sprintf "Trace writer: time went backwards (%d after %d)" time
           t.pending_time);
    if time > t.pending_time then begin
      flush_pending t;
      t.n_samples <- t.n_samples + 1
    end
  end
  else begin
    if t.have_prev && time <= t.prev_time then
      invalid_arg
        (Printf.sprintf "Trace writer: time went backwards (%d after %d)" time
           t.prev_time);
    t.n_samples <- t.n_samples + 1
  end;
  let free = t.pending in
  t.pending <- t.incoming;
  t.incoming <- free;
  t.have_pending <- true;
  t.pending_time <- time

let record t ~time =
  check_open t;
  let readers = t.readers and incoming = t.incoming in
  if (not t.bound) || Array.length readers <> Array.length t.names then
    invalid_arg "Trace writer: no signal table bound";
  for i = 0 to Array.length readers - 1 do
    let v = (Array.unsafe_get readers i) () in
    check_kind t i v;
    Array.unsafe_set incoming i v
  done;
  admit t ~time

(* The list adapter: the first sample fixes the names; every sample
   is checked against them — signal set, order and kinds stable across
   the run — while it fills [incoming], before anything is admitted. *)
let sample t ~time env =
  check_open t;
  if not t.bound then bind_names t (Array.of_list (List.map fst env));
  let n = Array.length t.names in
  let rec fill i = function
    | [] -> if i <> n then invalid_arg "Trace writer: sample is missing signals"
    | (name, v) :: rest ->
      if i >= n then invalid_arg "Trace writer: sample has extra signals";
      let expected = Array.unsafe_get t.names i in
      if not (String.equal expected name) then
        invalid_arg
          (Printf.sprintf "Trace writer: signal %d is %S, dictionary says %S" i
             name expected);
      check_kind t i v;
      Array.unsafe_set t.incoming i v;
      fill (i + 1) rest
  in
  fill 0 env;
  admit t ~time

let span t ~label ~start_time ~end_time =
  check_open t;
  if end_time < start_time then
    invalid_arg "Trace writer: span ends before it starts";
  let id =
    match Hashtbl.find t.labels label with
    | id -> id
    | exception Not_found ->
      let id = t.next_label in
      t.next_label <- id + 1;
      Hashtbl.add t.labels label id;
      (* Its own block: the reader resolves label ids at block
         boundaries, so a label may never share a CRC frame with the
         span that first uses it. *)
      add_char t Layout.tag_label;
      add_string t label;
      end_record t;
      id
  in
  add_char t Layout.tag_span;
  add_uint t id;
  add_zigzag t (start_time - t.prev_span_start);
  add_uint t (end_time - start_time);
  t.prev_span_start <- start_time;
  t.n_spans <- t.n_spans + 1;
  end_record t

let samples t = t.n_samples
let spans t = t.n_spans
let bytes_written t = t.bytes

(* Release the file without an end record: push the whole records
   staged so far, best effort, and drop the descriptor quietly.  The
   file is then a torn trace, refused by the reader with its verified
   prefix intact. *)
let abort t =
  if not t.closed then begin
    t.closed <- true;
    t.staged <- t.record_start;
    (try push t with Io.Io_error _ -> ());
    Io.close_noerr t.io
  end

let close t =
  if not t.closed then
    match
      flush_pending t;
      add_char t Layout.tag_end;
      add_uint t t.n_samples;
      add_uint t t.n_spans;
      end_record t;
      push t;
      Io.fsync t.io
    with
    | () ->
      t.closed <- true;
      Io.close t.io
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      abort t;
      Printexc.raise_with_backtrace e bt

let protect writer f =
  match f () with
  | result ->
    Option.iter close writer;
    result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Option.iter abort writer;
    Printexc.raise_with_backtrace e bt

let with_file ~path meta f =
  let t = create ~path meta in
  protect (Some t) (fun () -> f t)
