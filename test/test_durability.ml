(* Durable-storage hardening: the [Tabv_core.Io] seam (hook decisions,
   atomic whole-file commits), the CRC32 framing, the [Fault.Io]
   filesystem-fault vocabulary, and the corruption contract of both
   durable formats — journals and binary traces — under exhaustive
   truncate-at-every-byte and flip-every-byte sweeps: the only legal
   outcomes are a clean refusal or salvage of the CRC-verified prefix,
   never replayed garbage. *)

module J = Tabv_core.Report_json
module Io = Tabv_core.Io
module Crc32 = Tabv_core.Crc32
module FIo = Tabv_fault.Fault.Io
module Journal = Tabv_campaign.Journal
module Writer = Tabv_trace.Writer
module Reader = Tabv_trace.Reader

let case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) = Helpers.qtest ~count

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_temp_dir f =
  let dir = Filename.temp_file "tabv_test_dur" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun entry ->
          try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A hook that passes everything through; tests override one field. *)
let pass_hook =
  {
    Io.on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_through);
    on_fsync = (fun ~path:_ -> Io.Fsync_through);
    on_rename = (fun ~src:_ ~dst:_ -> Io.Op_through);
    on_close = (fun ~path:_ -> Io.Op_through);
  }

let with_hook hook f =
  Io.interpose hook;
  Fun.protect ~finally:Io.clear_interpose f

(* --- CRC32 --------------------------------------------------------- *)

let crc_cases =
  [ case "known vectors" (fun () ->
      Alcotest.(check int) "empty" 0 (Crc32.string "");
      (* The IEEE 802.3 check value for "123456789". *)
      Alcotest.(check int) "123456789" 0xcbf43926 (Crc32.string "123456789");
      Alcotest.(check string) "hex" "cbf43926" (Crc32.to_hex 0xcbf43926));
    case "of_hex accepts exactly the to_hex image" (fun () ->
      Alcotest.(check (option int)) "round trip" (Some 0xcbf43926)
        (Crc32.of_hex "cbf43926");
      Alcotest.(check (option int)) "uppercase refused" None
        (Crc32.of_hex "CBF43926");
      Alcotest.(check (option int)) "short refused" None (Crc32.of_hex "12345");
      Alcotest.(check (option int)) "long refused" None
        (Crc32.of_hex "123456789");
      Alcotest.(check (option int)) "non-hex refused" None
        (Crc32.of_hex "cbf4392g"));
    qtest "update composes over any split" QCheck.(pair string small_nat)
      (fun (s, k) ->
        let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
        let left = Crc32.update 0 s ~pos:0 ~len:k in
        let both = Crc32.update left s ~pos:k ~len:(String.length s - k) in
        both = Crc32.string s);
    qtest "byte fold equals string" QCheck.string (fun s ->
      String.fold_left Crc32.byte 0 s = Crc32.string s);
    qtest "single byte change is always detected" QCheck.(pair string small_nat)
      (fun (s, i) ->
        String.length s = 0
        ||
        let i = i mod String.length s in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Crc32.string (Bytes.to_string b) <> Crc32.string s) ]

(* --- the Io seam --------------------------------------------------- *)

let io_cases =
  [ case "create / write / fsync / close writes the bytes" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "plain.dat" in
        let t = Io.create path in
        Alcotest.(check int) "nothing flushed yet" 0 (Io.flushed t);
        Io.write t "hello ";
        Io.write t "world";
        Alcotest.(check int) "write stages only" 0 (Io.flushed t);
        Io.fsync t;
        Alcotest.(check int) "flushed offset" 11 (Io.flushed t);
        Io.close t;
        Io.close t (* idempotent *);
        Alcotest.(check string) "contents" "hello world" (read_file path);
        match Io.write t "x" with
        | () -> Alcotest.fail "write after close accepted"
        | exception Invalid_argument _ -> ()));
    case "append resumes at the current file size" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "log.dat" in
        write_raw path "abc";
        let t = Io.append path in
        Alcotest.(check int) "offset adopts size" 3 (Io.flushed t);
        Io.write t "def";
        Io.close t;
        Alcotest.(check string) "appended" "abcdef" (read_file path)));
    case "Write_error fails the flush and writes nothing" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "eio.dat" in
        let t = Io.create path in
        Io.write t "doomed";
        with_hook
          { pass_hook with
            on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_error Unix.EIO)
          }
          (fun () ->
            match Io.flush t with
            | () -> Alcotest.fail "faulted write succeeded"
            | exception Io.Io_error { op; error; _ } ->
              Alcotest.(check string) "op" "write" op;
              Alcotest.(check bool) "error" true (error = Unix.EIO));
        Io.close_noerr t;
        Alcotest.(check string) "nothing reached the file" "" (read_file path)));
    case "Write_short persists exactly the torn prefix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "torn.dat" in
        let t = Io.create path in
        Io.write t "0123456789";
        with_hook
          { pass_hook with
            on_write =
              (fun ~path:_ ~offset:_ ~len:_ ->
                Io.Write_short { bytes = 4; error = Unix.ENOSPC })
          }
          (fun () ->
            match Io.flush t with
            | () -> Alcotest.fail "short write reported success"
            | exception Io.Io_error { error; _ } ->
              Alcotest.(check bool) "enospc" true (error = Unix.ENOSPC));
        Alcotest.(check int) "offset counts the torn bytes" 4 (Io.flushed t);
        Io.close_noerr t;
        Alcotest.(check string) "torn prefix on disk" "0123" (read_file path)));
    case "Fsync_lost reports success without failing" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "lie.dat" in
        let t = Io.create path in
        Io.write t "acked";
        with_hook
          { pass_hook with on_fsync = (fun ~path:_ -> Io.Fsync_lost) }
          (fun () -> Io.fsync t);
        Io.close t;
        Alcotest.(check string) "bytes still written" "acked" (read_file path)));
    case "write_file_atomic commits and leaves no temp file" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "v1";
        Io.write_file_atomic ~path "v2";
        Alcotest.(check string) "latest contents" "v2" (read_file path);
        Alcotest.(check bool) "no temp file" false
          (Sys.file_exists (Io.temp_path path))));
    case "a failed rename keeps the old file and unlinks the temp" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "old";
        with_hook
          { pass_hook with
            on_rename = (fun ~src:_ ~dst:_ -> Io.Op_error Unix.EIO)
          }
          (fun () ->
            match Io.write_file_atomic ~path "new" with
            | () -> Alcotest.fail "faulted rename succeeded"
            | exception Io.Io_error { op; path = named; _ } ->
              Alcotest.(check string) "op" "rename" op;
              Alcotest.(check string) "names the target" path named);
        Alcotest.(check string) "old contents intact" "old" (read_file path);
        Alcotest.(check bool) "temp unlinked" false
          (Sys.file_exists (Io.temp_path path))));
    case "a failed write keeps the old file and unlinks the temp" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "report.json" in
        Io.write_file_atomic ~path "old";
        with_hook
          { pass_hook with
            on_write = (fun ~path:_ ~offset:_ ~len:_ -> Io.Write_error Unix.EIO)
          }
          (fun () ->
            match Io.write_file_atomic ~path "new" with
            | () -> Alcotest.fail "faulted write succeeded"
            | exception Io.Io_error { op; path = named; _ } ->
              Alcotest.(check string) "op" "write" op;
              Alcotest.(check string) "names the target" path named);
        Alcotest.(check string) "old contents intact" "old" (read_file path);
        Alcotest.(check bool) "temp unlinked" false
          (Sys.file_exists (Io.temp_path path))));
    case "temp path naming" (fun () ->
      Alcotest.(check string) "suffix" (("a/b.journal") ^ Io.temp_suffix)
        (Io.temp_path "a/b.journal");
      Alcotest.(check bool) "is_temp" true (Io.is_temp_path "x/y.json.tmp");
      Alcotest.(check bool) "not temp" false (Io.is_temp_path "x/y.json")) ]

(* --- Fault.Io vocabulary ------------------------------------------- *)

let fault_io_cases =
  [ case "out-of-scope files never trigger" (fun () ->
      with_temp_dir (fun dir ->
        let armed =
          FIo.arm
            (FIo.plan ~name:"scoped" ~scope:".journal"
               [ FIo.Write_eio { op = 0 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let t = Io.create (Filename.concat dir "other.data") in
            Io.write t "untouched";
            Io.fsync t;
            Io.close t);
        Alcotest.(check int) "nothing fired" 0 (FIo.io_triggered armed);
        Alcotest.(check string) "bytes intact" "untouched"
          (read_file (Filename.concat dir "other.data")))) ]

(* --- journal under injected filesystem faults ---------------------- *)

let journal_open ~path ~resume =
  match Journal.open_ ~path ~kind:"t" ~fingerprint:"fp" ~resume with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let journal_fault_cases =
  [ case "a torn append salvages to the last durable record" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        (* Write op 0 is the header's temp file (a [.tmp] sibling is in
           scope); op 2 — the second append — is cut short. *)
        let armed =
          FIo.arm
            (FIo.plan ~name:"torn" ~scope:".journal"
               [ FIo.Short_write { op = 2; keep = 5 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            (match Journal.append j ~id:1 (J.Int 101) with
             | () -> Alcotest.fail "torn append reported success"
             | exception Io.Io_error { error; _ } ->
               Alcotest.(check bool) "enospc" true (error = Unix.ENOSPC));
            Journal.close j);
        Alcotest.(check int) "the fault fired" 1 (FIo.io_triggered armed);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "only the durable record replays" true
          (Journal.replayed j = [ (0, J.Int 100) ]);
        Alcotest.(check bool) "torn bytes dropped" true
          (Journal.truncated_bytes j > 0);
        Journal.append j ~id:1 (J.Int 101);
        Journal.close j;
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "clean after re-append" true
          (Journal.replayed j = [ (0, J.Int 100); (1, J.Int 101) ]);
        Journal.close j));
    case "a lying fsync loses exactly the unsynced suffix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        (* Fsync op 0 syncs the header temp; the lie hits op 3 — the
           last append's fsync — so its record is acked but volatile. *)
        let armed =
          FIo.arm
            (FIo.plan ~name:"lie" ~scope:".journal"
               [ FIo.Fsync_lie { op = 3 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            Journal.append j ~id:1 (J.Int 101);
            Journal.append j ~id:2 (J.Int 102);
            Journal.close j);
        let durable = FIo.durable_prefix armed path in
        let full = read_file path in
        Alcotest.(check bool) "acked bytes beyond the durable prefix" true
          (durable < String.length full);
        (* The crash image keeps only what an honest fsync covered. *)
        write_raw path (String.sub full 0 durable);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "unsynced record lost, rest salvaged" true
          (Journal.replayed j = [ (0, J.Int 100); (1, J.Int 101) ]);
        Journal.close j));
    case "after a power cut every primitive fails; resume salvages" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        let armed =
          FIo.arm
            (FIo.plan ~name:"cut" ~scope:".journal"
               [ FIo.Power_cut { op = 2 } ])
        in
        FIo.install armed;
        Fun.protect ~finally:FIo.uninstall (fun () ->
            let j = journal_open ~path ~resume:false in
            Journal.append j ~id:0 (J.Int 100);
            (match Journal.append j ~id:1 (J.Int 101) with
             | () -> Alcotest.fail "write after the power cut succeeded"
             | exception Io.Io_error _ -> ());
            (match Journal.append j ~id:2 (J.Int 102) with
             | () -> Alcotest.fail "the machine is dead; nothing may succeed"
             | exception Io.Io_error _ -> ());
            Journal.close j);
        let j = journal_open ~path ~resume:true in
        Alcotest.(check bool) "pre-cut record replays" true
          (Journal.replayed j = [ (0, J.Int 100) ]);
        Journal.close j));
    case "gc_stale sweeps orphaned temp files regardless of age" (fun () ->
      with_temp_dir (fun dir ->
        let orphan = Filename.concat dir "dead.journal.tmp" in
        let live = Filename.concat dir "live.journal" in
        write_raw orphan "half a header";
        write_raw live "fresh";
        let now = (Unix.stat live).Unix.st_mtime in
        let deleted = Journal.gc_stale ~now ~dir ~max_age_s:3600. () in
        Alcotest.(check (list string)) "only the orphan" [ orphan ] deleted;
        Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
        Alcotest.(check bool) "live journal kept" true (Sys.file_exists live))) ]

(* --- exhaustive corruption sweeps ---------------------------------- *)

(* [l] is a prefix of [r] (structural equality element-wise). *)
let rec is_prefix l r =
  match (l, r) with
  | [], _ -> true
  | _, [] -> false
  | x :: l, y :: r -> x = y && is_prefix l r

(* [s] with bit [bit] (0-7) of byte [i] flipped: the sweeps below try
   every bit of every byte. *)
let flip_bit s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

let journal_sweep_cases =
  [ case "truncating a journal at any byte salvages a record prefix" (fun () ->
      with_temp_dir (fun dir ->
        let path = Filename.concat dir "run.journal" in
        let records = [ (0, J.Int 100); (1, J.Int 101); (2, J.Int 102) ] in
        let j = journal_open ~path ~resume:false in
        List.iter (fun (id, r) -> Journal.append j ~id r) records;
        Journal.close j;
        let full = read_file path in
        for cut = 0 to String.length full do
          write_raw path (String.sub full 0 cut);
          let j = journal_open ~path ~resume:true in
          if not (is_prefix (Journal.replayed j) records) then
            Alcotest.failf "cut at %d replayed out-of-prefix records" cut;
          if cut = String.length full && Journal.records j <> 3 then
            Alcotest.failf "uncut journal lost records";
          Journal.close j
        done));
    case "flipping any journal bit refuses or salvages, never garbage"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.journal" in
          let records = [ (0, J.Int 100); (1, J.Int 101); (2, J.Int 102) ] in
          let j = journal_open ~path ~resume:false in
          List.iter (fun (id, r) -> Journal.append j ~id r) records;
          Journal.close j;
          let full = read_file path in
          let refused = ref 0 and salvaged = ref 0 in
          for i = 0 to String.length full - 1 do
            for bit = 0 to 7 do
              write_raw path (flip_bit full i bit);
              match Journal.open_ ~path ~kind:"t" ~fingerprint:"fp" ~resume:true with
              | Error _ -> incr refused (* a damaged header is fatal *)
              | Ok j ->
                incr salvaged;
                if not (is_prefix (Journal.replayed j) records) then
                  Alcotest.failf "flip of bit %d at %d replayed out-of-prefix \
                                  records" bit i;
                if Journal.records j >= 3 then
                  Alcotest.failf "flip of bit %d at %d went undetected" bit i;
                Journal.close j
            done
          done;
          (* Both regimes must actually occur: header flips refuse,
             record flips salvage. *)
          Alcotest.(check bool) "some flips refused" true (!refused > 0);
          Alcotest.(check bool) "some flips salvaged" true (!salvaged > 0))) ]

(* --- trace corruption sweeps --------------------------------------- *)

let trace_meta =
  { Tabv_trace.Meta.model = "sweep-model"; seed = 3; ops = 4; engine = "classic" }

let write_sweep_trace path =
  Writer.with_file ~path trace_meta (fun w ->
      let open Tabv_psl in
      Writer.span w ~label:"read" ~start_time:0 ~end_time:10;
      List.iter
        (fun (t, b, x) ->
          Writer.sample w ~time:t
            [ ("a", Expr.VBool b); ("x", Expr.VInt x) ])
        [ (10, true, 1); (20, false, 2); (30, true, 3); (40, false, -7) ];
      Writer.span w ~label:"write" ~start_time:15 ~end_time:35)

(* Stream everything, returning the entries surfaced before the first
   [Format_error] (if any) and how and where the damage was reported. *)
let drain path =
  match Reader.open_file path with
  | exception Reader.Format_error { message; offset; valid_prefix; _ } ->
    ([], Some (message, offset, valid_prefix))
  | t ->
    let acc = ref [] and err = ref None in
    (try
       let rec go () =
         match Reader.next t with
         | Some e ->
           acc := e :: !acc;
           go ()
         | None -> ()
       in
       go ()
     with Reader.Format_error { message; offset; valid_prefix; _ } ->
       err := Some (message, offset, valid_prefix));
    Reader.close t;
    (List.rev !acc, !err)

(* The stepping path over the same file (the offline checker's): the
   dictionary first, then every sample's time and valuation, and how
   and where it reported damage. *)
let step_drain path =
  match Reader.open_file path with
  | exception Reader.Format_error { message; offset; valid_prefix; _ } ->
    ([], Some (message, offset, valid_prefix))
  | t ->
    let acc = ref [] and err = ref None in
    (try
       ignore (Reader.dictionary t);
       let rec go () =
         match Reader.step t with
         | Reader.Changed | Reader.Unchanged ->
           acc := (Reader.time t, Array.to_list (Reader.values t)) :: !acc;
           go ()
         | Reader.End -> ()
       in
       go ()
     with Reader.Format_error { message; offset; valid_prefix; _ } ->
       err := Some (message, offset, valid_prefix));
    Reader.close t;
    (List.rev !acc, !err)

let samples_of entries =
  List.filter_map
    (function
      | Tabv_trace.Entry.Sample { time; env } -> Some (time, List.map snd env)
      | Tabv_trace.Entry.Span _ -> None)
    entries

(* Both decoding paths must surface the same samples and report the
   same damage: message, offset and verified prefix. *)
let check_paths_agree what path entries err =
  let stepped, step_err = step_drain path in
  if step_err <> err then Alcotest.failf "%s: stepping reported other damage" what;
  if stepped <> samples_of entries then
    Alcotest.failf "%s: stepping surfaced other samples" what

let trace_sweep_cases =
  [ case "truncating a trace at any byte reports the verified prefix"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.trace" in
          write_sweep_trace path;
          let full = read_file path in
          let clean, clean_err = drain path in
          Alcotest.(check bool) "clean trace reads clean" true
            (clean_err = None);
          check_paths_agree "clean" path clean clean_err;
          for cut = 0 to String.length full - 1 do
            write_raw path (String.sub full 0 cut);
            let entries, err = drain path in
            check_paths_agree (Printf.sprintf "cut at %d" cut) path entries err;
            match err with
            | None -> Alcotest.failf "cut at %d went undetected" cut
            | Some (_, offset, valid_prefix) ->
              if not (is_prefix entries clean) then
                Alcotest.failf "cut at %d surfaced out-of-prefix entries" cut;
              if valid_prefix > cut then
                Alcotest.failf
                  "cut at %d claims a %d-byte verified prefix" cut valid_prefix;
              if offset < valid_prefix then
                Alcotest.failf "cut at %d reports damage inside the prefix" cut
          done));
    case "flipping any trace bit is detected; entries stay a prefix"
      (fun () ->
        with_temp_dir (fun dir ->
          let path = Filename.concat dir "run.trace" in
          write_sweep_trace path;
          let full = read_file path in
          let clean, _ = drain path in
          for i = 0 to String.length full - 1 do
            for bit = 0 to 7 do
              write_raw path (flip_bit full i bit);
              let entries, err = drain path in
              let where = Printf.sprintf "flip of bit %d at %d" bit i in
              check_paths_agree where path entries err;
              match err with
              | None -> Alcotest.failf "%s went undetected" where
              | Some _ ->
                if not (is_prefix entries clean) then
                  Alcotest.failf "%s surfaced out-of-prefix entries" where
            done
          done)) ]

let suite =
  ( "durability",
    crc_cases @ io_cases @ fault_io_cases @ journal_fault_cases
    @ journal_sweep_cases @ trace_sweep_cases )
