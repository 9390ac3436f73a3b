(* Write-ahead journal for resumable campaigns.  See journal.mli for
   the durability and fingerprint contracts; the implementation notes
   here are about the failure modes.

   Append path: one line = one record, framed as

     <crc32 of body, 8 hex digits> SP <body JSON> NL

   staged as a single chunk through {!Tabv_core.Io} (so the fault
   hook sees one write boundary per record) and fsynced before
   [append] returns.  The line is built before any byte reaches the
   file, so a crash can only truncate the *last* line, never
   interleave two — and the CRC catches everything subtler than a
   clean truncation: a torn tail that still ends in '\n', a flipped
   bit from a dying disk, a lied-about fsync.

   Read-back path (resume): lines are split on '\n'; the first line
   that is incomplete, fails its CRC, or does not parse as a record
   ends the valid prefix — the file is truncated back to the last
   valid record and the dropped jobs simply re-run (they are
   deterministic functions of the job spec, so the resumed report
   stays byte-identical).  Only the header is load-bearing beyond
   that: a corrupted or mismatched header is an error, because
   without it the journal cannot be proven to belong to this
   campaign. *)

module J = Tabv_core.Report_json
module Crc32 = Tabv_core.Crc32

let journal_schema_version = 2

type t = {
  path : string;
  kind : string;
  mutable io : Tabv_core.Io.t option;
  mutable replayed : (int * J.json) list;
  mutable count : int;
  truncated_bytes : int;
  lock : Mutex.t;
}

let fingerprint_of_string s = Digest.to_hex (Digest.string s)

let header_json ~kind ~fingerprint =
  J.Assoc
    [ ("journal", J.Int journal_schema_version);
      ("kind", J.String kind);
      ("fingerprint", J.String fingerprint) ]

let ( let* ) = Result.bind

(* CRC line framing: "%08x %s". *)
let frame body = Crc32.to_hex (Crc32.string body) ^ " " ^ body

let unframe line =
  if String.length line >= 9 && line.[8] = ' ' then
    match Crc32.of_hex (String.sub line 0 8) with
    | Some crc ->
      let body = String.sub line 9 (String.length line - 9) in
      if Crc32.string body = crc then Some body else None
    | None -> None
  else None

let parse_line what line =
  match J.of_string line with
  | json -> Ok json
  | exception J.Parse_error { line = l; col; message } ->
    Error (Printf.sprintf "%s: %d:%d: %s" what l col message)

let check_header ~kind ~fingerprint line =
  let* json = parse_line "journal header" line in
  let str key =
    match J.member key json with
    | Some (J.String s) -> Ok s
    | _ -> Error (Printf.sprintf "journal header: missing key %S" key)
  in
  let* () =
    match J.member "journal" json with
    | Some (J.Int v) when v = journal_schema_version -> Ok ()
    | Some (J.Int v) ->
      Error (Printf.sprintf "journal header: unsupported version %d" v)
    | _ -> Error "journal header: missing key \"journal\""
  in
  let* k = str "kind" in
  let* () =
    if k = kind then Ok ()
    else Error (Printf.sprintf "journal is a %S journal, expected %S" k kind)
  in
  let* fp = str "fingerprint" in
  if fp = fingerprint then Ok ()
  else
    Error
      "journal fingerprint does not match this job list (different manifest, \
       retries or code version) — refusing to graft results across campaigns"

let parse_record index line =
  let what = Printf.sprintf "journal record %d" index in
  let* json = parse_line what line in
  match (J.member "id" json, J.member "record" json) with
  | Some (J.Int id), Some record when id >= 0 -> Ok (id, record)
  | _ -> Error (what ^ ": expected {\"id\":n,\"record\":..}")

(* Complete (newline-terminated) lines of [text].  A dangling fragment
   after the last '\n' is excluded. *)
let complete_lines text =
  let rec go acc start =
    match String.index_from_opt text start '\n' with
    | None -> List.rev acc
    | Some i -> go (String.sub text start (i - start) :: acc) (i + 1)
  in
  go [] 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [(records, valid_prefix_bytes)]; [valid_prefix_bytes = 0] means not
   even the header line survived (a crash before the first header
   fsync completed) — the journal restarts from scratch.  The valid
   prefix ends at the first incomplete, CRC-failing or unparsable
   record line; everything after it is a crash artifact or corruption
   and is dropped (its jobs deterministically re-run). *)
let scan ~kind ~fingerprint text =
  match complete_lines text with
  | [] -> Ok ([], 0)
  | header :: records ->
    let* hbody =
      match unframe header with
      | Some body -> Ok body
      | None ->
        (* An incomplete first line would not have reached us (no
           '\n'); a complete header that fails its CRC is corruption
           of the one line that binds the journal to a campaign. *)
        Error "journal header: checksum mismatch (corrupted journal header)"
    in
    let* () = check_header ~kind ~fingerprint hbody in
    let rec go acc index offset = function
      | [] -> (List.rev acc, offset)
      | line :: rest -> (
        match unframe line with
        | None -> (List.rev acc, offset)
        | Some body -> (
          match parse_record index body with
          | Error _ -> (List.rev acc, offset)
          | Ok r ->
            go (r :: acc) (index + 1) (offset + String.length line + 1) rest))
    in
    Ok (go [] 0 (String.length header + 1) records)

let dedup_by_id records =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (id, _) ->
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    records
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let write_line io line =
  Tabv_core.Io.write io (frame line ^ "\n");
  Tabv_core.Io.fsync io

let open_ ~path ~kind ~fingerprint ~resume =
  let* replayed, valid_len, total_len =
    if resume && Sys.file_exists path then begin
      (* An unreadable path (a directory, bad permissions) is an
         honest [Error], not an escaped exception. *)
      let* text =
        match read_file path with
        | text -> Ok text
        | exception Sys_error msg -> Error ("journal: " ^ msg)
      in
      let* records, valid_len = scan ~kind ~fingerprint text in
      if valid_len < String.length text && valid_len > 0 then
        (* Drop the torn / corrupt suffix before reopening. *)
        Unix.truncate path valid_len;
      Ok (dedup_by_id records, valid_len, String.length text)
    end
    else Ok ([], 0, 0)
  in
  let fresh = valid_len = 0 in
  (* Opening has a [Result] interface, so storage failures here come
     back as [Error]; once the journal is open, append-path faults
     stay exceptional ([Io_error]) so a mid-campaign ENOSPC aborts the
     run instead of being absorbed. *)
  let* io =
    match
      if fresh then begin
        (* The header commits atomically (temp + fsync + rename): a
           crash during creation leaves either no journal or a complete
           one-line journal, never a torn header. *)
        Tabv_core.Io.write_file_atomic ~path
          (frame (J.to_string (header_json ~kind ~fingerprint)) ^ "\n");
        Tabv_core.Io.append path
      end
      else Tabv_core.Io.append path
    with
    | io -> Ok io
    | exception Tabv_core.Io.Io_error { op; error; _ } ->
      Error
        (Printf.sprintf "journal: %s %s: %s" op path (Unix.error_message error))
  in
  Ok
    {
      path;
      kind;
      io = Some io;
      replayed;
      count = List.length replayed;
      truncated_bytes = total_len - valid_len;
      lock = Mutex.create ();
    }

let replayed t = t.replayed
let records t = t.count
let truncated_bytes t = t.truncated_bytes

let append t ~id record =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.io with
      | None -> invalid_arg (Printf.sprintf "Journal.append: %s is closed" t.path)
      | Some io ->
        let line = J.to_string (J.Assoc [ ("id", J.Int id); ("record", record) ]) in
        write_line io line;
        t.count <- t.count + 1)

(* Collision-safe journal path for concurrent requests sharing one
   state directory: the fingerprint already uniquely identifies the
   job list, so it names the file.  Two concurrent *identical*
   campaigns would still collide — the serve daemon rejects those at
   admission instead of interleaving their appends. *)
let journal_extension = ".journal"

let state_path ~dir ~kind ~fingerprint =
  Filename.concat dir (kind ^ "-" ^ fingerprint ^ journal_extension)

let gc_stale ?now ~dir ~max_age_s () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else begin
    let now =
      match now with
      | Some t -> t
      | None -> Unix.gettimeofday ()
    in
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun entry ->
           (* Orphaned [*.tmp] siblings (a crash between temp-write
              and rename) are swept regardless of age: gc runs at
              boot, before any concurrent writer exists. *)
           let stale_journal = Filename.check_suffix entry journal_extension in
           let orphan_tmp = Tabv_core.Io.is_temp_path entry in
           if not (stale_journal || orphan_tmp) then None
           else begin
             let path = Filename.concat dir entry in
             match Unix.stat path with
             | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
               when orphan_tmp || now -. st_mtime > max_age_s ->
               (match Unix.unlink path with
                | () -> Some path
                | exception Unix.Unix_error _ -> None)
             | _ | (exception Unix.Unix_error _) -> None
           end)
  end

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.io with
      | None -> ()
      | Some io ->
        t.io <- None;
        Tabv_core.Io.close_noerr io)
