open Tabv_psl
open Tabv_trace

(* The binary trace format: encode/decode round trips, damaged-file
   refusal, the writer's same-instant last-wins buffer, offline
   checking against a real step at every sample, parallel re-checking,
   and the streaming reader's bounded memory. *)

let case name f = Alcotest.test_case name `Quick f

let meta =
  { Meta.model = "test-model"; seed = 7; ops = 3; engine = "classic" }

let temp_trace () = Filename.temp_file "tabv_test" ".trace"

let with_temp f =
  let path = temp_trace () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- generators for the round-trip property ----------------------- *)

(* A random recording: a dictionary (names + kinds), strictly
   increasing sample times with per-kind random values, and spans over
   a small label set. *)
type recording = {
  rec_samples : (int * (string * Expr.value) list) list;
  rec_spans : (string * int * int) list;
}

let gen_recording =
  let open QCheck.Gen in
  let* n_signals = int_range 1 6 in
  let* kinds = list_repeat n_signals bool in
  let signals =
    List.mapi (fun i is_bool -> (Printf.sprintf "s%d" i, is_bool)) kinds
  in
  let gen_value is_bool =
    if is_bool then map (fun b -> Expr.VBool b) bool
    else
      oneof
        [ map (fun v -> Expr.VInt v) (int_range (-1000) 1000);
          oneofl [ Expr.VInt max_int; Expr.VInt min_int; Expr.VInt 0 ] ]
  in
  let gen_env =
    flatten_l
      (List.map
         (fun (name, is_bool) -> map (fun v -> (name, v)) (gen_value is_bool))
         signals)
  in
  let* n_samples = int_range 0 40 in
  let* t0 = int_range 0 50 in
  let* deltas = list_repeat n_samples (int_range 1 100) in
  let times =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) d ->
              let t = t + d in
              (t, t :: acc))
            (t0, []) deltas))
  in
  let* envs = list_repeat n_samples gen_env in
  let* n_spans = int_range 0 10 in
  let* spans =
    list_repeat n_spans
      (let* label = oneofl [ "read"; "write"; "burst" ] in
       let* start = int_range 0 5000 in
       let* duration = int_range 0 500 in
       return (label, start, start + duration))
  in
  return { rec_samples = List.combine times envs; rec_spans = spans }

let arb_recording =
  QCheck.make
    ~print:(fun r ->
      Printf.sprintf "%d samples, %d spans"
        (List.length r.rec_samples)
        (List.length r.rec_spans))
    gen_recording

let write_recording path r =
  Writer.with_file ~path meta (fun w ->
      List.iter (fun (time, env) -> Writer.sample w ~time env) r.rec_samples;
      List.iter
        (fun (label, start_time, end_time) ->
          Writer.span w ~label ~start_time ~end_time)
        r.rec_spans)

(* Samples and spans are independent streams (the pending-sample
   buffer reorders them within an instant), so read them back
   separately. *)
let read_streams path =
  Reader.with_file path (fun reader ->
      Seq.fold_left
        (fun (samples, spans) entry ->
          match entry with
          | Entry.Sample { time; env } -> ((time, env) :: samples, spans)
          | Entry.Span { label; start_time; end_time } ->
            (samples, (label, start_time, end_time) :: spans))
        ([], []) (Reader.to_seq reader)
      |> fun (samples, spans) -> (List.rev samples, List.rev spans))

let roundtrip_cases =
  [ Helpers.qtest ~count:300 "write/read round trip (samples and spans)"
      arb_recording
      (fun r ->
        with_temp (fun path ->
            write_recording path r;
            let samples, spans = read_streams path in
            samples = r.rec_samples && spans = r.rec_spans));
    case "meta survives the header" (fun () ->
      with_temp (fun path ->
          write_recording path { rec_samples = []; rec_spans = [] };
          let got = Reader.with_file path Reader.meta in
          Alcotest.(check bool) "meta equal" true (Meta.equal meta got)));
    case "signal dictionary is recovered in sample order" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples =
                [ (5, [ ("b", Expr.VBool true); ("a", Expr.VInt 3) ]) ];
              rec_spans = [] };
          Reader.with_file path (fun reader ->
              Seq.iter ignore (Reader.to_seq reader);
              Alcotest.(check (list string))
                "dict order" [ "b"; "a" ] (Reader.signals reader))));
    case "same-instant samples collapse last-wins" (fun () ->
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Writer.sample w ~time:10 [ ("x", Expr.VBool true) ];
              Writer.sample w ~time:10 [ ("x", Expr.VBool false) ];
              Writer.sample w ~time:20 [ ("x", Expr.VBool false) ]);
          let samples, _ = read_streams path in
          Alcotest.(check bool) "last write wins" true
            (samples
             = [ (10, [ ("x", Expr.VBool false) ]);
                 (20, [ ("x", Expr.VBool false) ]) ])));
    case "writer refuses time going backwards" (fun () ->
      with_temp (fun path ->
          let w = Writer.create ~path meta in
          Writer.sample w ~time:10 [ ("x", Expr.VBool true) ];
          (match Writer.sample w ~time:5 [ ("x", Expr.VBool true) ] with
           | () -> Alcotest.fail "accepted a backwards sample"
           | exception Invalid_argument _ -> ());
          Writer.close w));
    case "writer refuses an unstable signal set" (fun () ->
      with_temp (fun path ->
          let w = Writer.create ~path meta in
          Writer.sample w ~time:0 [ ("x", Expr.VBool true) ];
          (match
             Writer.sample w ~time:10
               [ ("x", Expr.VBool true); ("y", Expr.VInt 1) ]
           with
           | () -> Alcotest.fail "accepted extra signals"
           | exception Invalid_argument _ -> ());
          (match Writer.sample w ~time:20 [ ("x", Expr.VInt 1) ] with
           | () -> Alcotest.fail "accepted a kind change"
           | exception Invalid_argument _ -> ());
          Writer.close w)) ]

(* --- damaged files ------------------------------------------------ *)

let read_all path =
  Reader.with_file path (fun reader -> Seq.iter ignore (Reader.to_seq reader))

let refuses path =
  match read_all path with
  | () -> false
  | exception Reader.Format_error _ -> true

let write_bytes path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let corrupt_cases =
  [ case "refuses a non-trace file" (fun () ->
      with_temp (fun path ->
          write_bytes path "definitely not a trace";
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses an unsupported version" (fun () ->
      with_temp (fun path ->
          write_recording path { rec_samples = []; rec_spans = [] };
          let bytes = Bytes.of_string In_channel.(with_open_bin path input_all) in
          Bytes.set bytes 7 '\x63';
          write_bytes path (Bytes.to_string bytes);
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses every truncation point" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples =
                [ (0, [ ("a", Expr.VBool true); ("n", Expr.VInt 42) ]);
                  (10, [ ("a", Expr.VBool false); ("n", Expr.VInt 42) ]);
                  (25, [ ("a", Expr.VBool false); ("n", Expr.VInt (-7)) ]) ];
              rec_spans = [ ("read", 0, 20); ("write", 5, 10) ] };
          let full = In_channel.(with_open_bin path input_all) in
          Alcotest.(check bool) "full file reads" false (refuses path);
          for cut = 0 to String.length full - 1 do
            write_bytes path (String.sub full 0 cut);
            if not (refuses path) then
              Alcotest.failf "accepted a %d-byte truncation" cut
          done));
    case "refuses trailing bytes after the end record" (fun () ->
      with_temp (fun path ->
          write_recording path
            { rec_samples = [ (0, [ ("a", Expr.VBool true) ]) ];
              rec_spans = [] };
          let full = In_channel.(with_open_bin path input_all) in
          write_bytes path (full ^ "\x00");
          Alcotest.(check bool) "refused" true (refuses path)));
    case "refuses a uint varint overflowing into the sign bit" (fun () ->
      let next_of bytes =
        let i = ref 0 in
        fun () ->
          if !i >= String.length bytes then raise End_of_file
          else begin
            let c = bytes.[!i] in
            incr i;
            c
          end
      in
      (* Nine bytes whose payload sets bit 62 — the OCaml int sign bit.
         A well-formed-looking uint field must not silently decode to a
         negative value. *)
      let negative = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
      (match Varint.read_uint (next_of negative) with
       | v -> Alcotest.failf "decoded to %d instead of raising" v
       | exception Varint.Corrupt _ -> ());
      (* Ten-byte encodings stay rejected. *)
      let overlong = "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" in
      (match Varint.read_uint (next_of overlong) with
       | v -> Alcotest.failf "decoded to %d instead of raising" v
       | exception Varint.Corrupt _ -> ());
      (* The zigzag side still spans the full signed range (bit 62 is
         a legitimate zigzag payload bit), and max uint round-trips. *)
      let encode write v =
        let b = Bytes.create Varint.max_bytes in
        Bytes.sub_string b 0 (write b 0 v)
      in
      List.iter
        (fun v ->
          Alcotest.(check int) "zigzag round trip" v
            (Varint.read_zigzag (next_of (encode Varint.write_zigzag v))))
        [ min_int; max_int; -1; 0; 1 ];
      Alcotest.(check int) "max uint round trip" max_int
        (Varint.read_uint (next_of (encode Varint.write_uint max_int)))) ]

(* --- the offline checker API -------------------------------------- *)

let des56_trace ops_count =
  let ops = Tabv_duv.Workload.des56 ~seed:3 ~count:ops_count () in
  snd (Helpers.run_traced Tabv_duv.Testbench.default (Tabv_duv.Testbench.des56_rtl ()) ops)

(* A pool taking a real [Monitor.step] at every sample, never a
   replay: the reference [Offline] must agree with. *)
let step_every_sample properties entries =
  let open Tabv_checker in
  let env = ref [] in
  let sampler = Sampler.create (Expr.env_resolver env) in
  let monitors = List.map (fun p -> Monitor.create ~sampler p) properties in
  List.iter
    (function
      | Entry.Sample { time; env = sample } ->
        env := sample;
        List.iter (fun m -> Monitor.step m ~time) monitors
      | Entry.Span _ -> ())
    entries;
  Offline.snapshots monitors

(* A random pool of 1-3 properties over [Helpers]' signals — [always]
   or one-shot bodies that may hold [next_eps^tau], some gated by their
   context — and a sample sequence on the 10 ns grid that re-emits each
   env physically 1-5 times, as the trace reader does for unchanged
   samples. *)
let gen_pool_and_samples =
  let open QCheck.Gen in
  let gen_property i =
    let* body = Helpers.gen_ltl_timed_nnf in
    let* repeating = bool in
    let* gate = opt Helpers.gen_atom_expr in
    let context =
      match gate with
      | None -> Context.Transaction Context.Base_trans
      | Some gate -> Context.Transaction (Context.Trans_and gate)
    in
    return
      (Property.make ~name:(Printf.sprintf "q%d" i) ~context
         (if repeating then Ltl.Always body else body))
  in
  let* count = int_range 1 3 in
  let* properties = flatten_l (List.init count gen_property) in
  let* runs =
    list_size (int_range 1 12)
      (pair Helpers.gen_env (list_size (int_range 1 5) (int_range 1 4)))
  in
  let _, entries =
    List.fold_left
      (fun acc (env, gaps) ->
        List.fold_left
          (fun (time, entries) gap ->
            let time = time + (10 * gap) in
            (time, Entry.Sample { time; env } :: entries))
          acc gaps)
      (0, []) runs
  in
  return (properties, List.rev entries)

let arb_pool_and_samples =
  QCheck.make
    ~print:(fun (properties, entries) ->
      Format.asprintf "@[<v>%a@,%a@]"
        (Format.pp_print_list Property.pp)
        properties
        (Format.pp_print_list Entry.pp)
        entries)
    gen_pool_and_samples

let offline_cases =
  [ case "a busy step on an unchanged sample evaluates no atom" (fun () ->
      (* [a] holds at every sample, so each step activates an instance
         that waits five samples: from the second sample on the monitor
         is busy and steps for real.  Only the first sample changes a
         value; the later steps read what its prime sampled. *)
      let open Tabv_checker in
      let env = [ ("a", Expr.VBool true); ("b", Expr.VBool false) ] in
      let property =
        Property.make ~name:"p" ~context:(Context.Transaction Context.Base_trans)
          (Parser.formula_only "always (!a || next[5](b))")
      in
      let run samples =
        match
          Offline.over_seq [ property ]
            (List.to_seq
               (List.init samples (fun i -> Entry.Sample { time = 10 * i; env })))
        with
        | [ monitor ] -> monitor
        | _ -> assert false
      in
      let first = run 1 and later = run 4 in
      Alcotest.(check int) "steps" 4 (Monitor.steps later);
      Alcotest.(check int) "pending" 4 (Monitor.pending later);
      Alcotest.(check int) "evaluations"
        (Sampler.evals (Monitor.sampler first))
        (Sampler.evals (Monitor.sampler later)));
    Helpers.qtest ~count:500
      "over_seq agrees with a real step at every sample" arb_pool_and_samples
      (fun (properties, entries) ->
        Tabv_checker.Progression.reset_universe ();
        let offline =
          Tabv_checker.Offline.snapshots
            (Tabv_checker.Offline.over_seq properties (List.to_seq entries))
        in
        let offline_universe = Tabv_checker.Progression.cache_stats () in
        (* The same samples recorded through the writer and re-checked
           through the reader's stepping path: slot-resolved atoms, and
           the change mask instead of physical equality. *)
        let recorded, recorded_universe =
          with_temp (fun path ->
              Writer.with_file ~path meta (fun w ->
                  List.iter
                    (function
                      | Entry.Sample { time; env } -> Writer.sample w ~time env
                      | Entry.Span _ -> ())
                    entries);
              Tabv_checker.Progression.reset_universe ();
              let snapshots =
                Tabv_checker.Offline.snapshots
                  (Tabv_checker.Offline.over_file properties path)
              in
              (snapshots, Tabv_checker.Progression.cache_stats ()))
        in
        Tabv_checker.Progression.reset_universe ();
        let stepped = step_every_sample properties entries in
        let stepped_universe = Tabv_checker.Progression.cache_stats () in
        offline = stepped && recorded = stepped
        && offline_universe = stepped_universe
        && recorded_universe = stepped_universe);
    case "over_file matches over_trace on a recorded run" (fun () ->
      let trace = des56_trace 12 in
      let props = Tabv_duv.Des56_props.all in
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Seq.iter
                (function
                  | Entry.Sample { time; env } -> Writer.sample w ~time env
                  | Entry.Span _ -> ())
                (Entry.of_trace trace));
          Tabv_checker.Progression.reset_universe ();
          let of_file =
            Tabv_checker.Offline.snapshots
              (Tabv_checker.Offline.over_file props path)
          in
          Tabv_checker.Progression.reset_universe ();
          let of_trace =
            Tabv_checker.Offline.snapshots
              (Tabv_checker.Offline.over_trace props trace)
          in
          Alcotest.(check bool) "identical snapshots" true
            (of_file = of_trace))) ]

(* --- parallel re-checking ----------------------------------------- *)

let record_des56 ?(engine = "classic") path ops_count =
  let ops = Tabv_duv.Workload.des56 ~seed:5 ~count:ops_count () in
  let run_meta = { Meta.model = "des56-rtl"; seed = 5; ops = ops_count; engine } in
  Writer.with_file ~path run_meta (fun w ->
      Tabv_duv.Testbench.run
        { Tabv_duv.Testbench.default with
          properties = Tabv_duv.Des56_props.all; trace_writer = Some w }
        (Tabv_duv.Testbench.des56_rtl ()) ops)

let recheck_cases =
  [ case "recheck report is identical to the live check" (fun () ->
      (* ["compiled"] is the header [tabv record] wrote under the
         since-removed compiled kernel engine: such traces must still
         recheck to the live report. *)
      List.iter
        (fun engine ->
          with_temp (fun path ->
              let live = record_des56 ~engine path 15 in
              let run_fields =
                [ ("model", Tabv_core.Report_json.String "des56-rtl");
                  ("seed", Tabv_core.Report_json.Int 5);
                  ("ops", Tabv_core.Report_json.Int 15) ]
              in
              let live_doc =
                Tabv_core.Report_json.to_string
                  (Tabv_core.Report_json.verdict_report_json ~run:run_fields
                     ~properties:live.Tabv_duv.Testbench.checker_stats ())
              in
              let rechecked =
                Tabv_campaign.Recheck.run ~workers:2 ~retries:0 ~trace:path
                  Tabv_duv.Des56_props.all
              in
              Alcotest.(check string) "header engine" engine
                rechecked.Tabv_campaign.Recheck.meta.Meta.engine;
              Alcotest.(check string) ("byte-identical, " ^ engine) live_doc
                (Tabv_core.Report_json.to_string
                   (Tabv_campaign.Recheck.report_json rechecked))))
        [ "classic"; "compiled" ]);
    case "a stutter-heavy recording rechecks to the live report" (fun () ->
      (* Eight idle cycles between operations: most samples re-emit the
         previous env, so most offline steps reuse the valuation and
         replay. *)
      with_temp (fun path ->
          let ops_count = 30 in
          let ops = Tabv_duv.Workload.des56 ~seed:42 ~count:ops_count () in
          let run_meta =
            { Meta.model = "des56-rtl"; seed = 42; ops = ops_count;
              engine = "classic" }
          in
          let live =
            Writer.with_file ~path run_meta (fun w ->
                Tabv_duv.Testbench.run
                  { Tabv_duv.Testbench.default with
                    properties = Tabv_duv.Des56_props.all;
                    trace_writer = Some w;
                    gap_cycles = 8 }
                  (Tabv_duv.Testbench.des56_rtl ()) ops)
          in
          let samples = ref 0 and reemitted = ref 0 and prev = ref [] in
          Reader.with_file path (fun reader ->
              Seq.iter
                (function
                  | Entry.Sample { env; _ } ->
                    incr samples;
                    if env == !prev then incr reemitted;
                    prev := env
                  | Entry.Span _ -> ())
                (Reader.to_seq reader));
          if 2 * !reemitted < !samples then
            Alcotest.failf "only %d of %d samples re-emitted" !reemitted
              !samples;
          let live_doc =
            Tabv_core.Report_json.to_string
              (Tabv_duv.Models.verdict_report Tabv_duv.Models.Des56_rtl
                 ~seed:42 ~ops:ops_count live)
          in
          let rechecked =
            Tabv_campaign.Recheck.run ~workers:1 ~retries:0 ~trace:path
              Tabv_duv.Des56_props.all
          in
          Alcotest.(check string) "byte-identical" live_doc
            (Tabv_core.Report_json.to_string
               (Tabv_campaign.Recheck.report_json rechecked))));
    case "recheck report is independent of the worker count" (fun () ->
      with_temp (fun path ->
          ignore (record_des56 path 15);
          let report workers =
            Tabv_core.Report_json.to_string
              (Tabv_campaign.Recheck.report_json
                 (Tabv_campaign.Recheck.run ~workers ~retries:0 ~trace:path
                    Tabv_duv.Des56_props.all))
          in
          let one = report 1 in
          Alcotest.(check string) "1 = 3 workers" one (report 3);
          Alcotest.(check string) "1 = 16 workers" one (report 16)));
    case "property sources re-parse to the same property" (fun () ->
      (* Machine-abstracted properties may carry expression-level
         boolean connectives where the parser builds LTL-level ones
         (both print and check identically), so the wire contract is
         pinned on the printed form: name, context and formula text
         must survive the source/parse round trip unchanged. *)
      List.iter
        (fun p ->
          match
            Parser.file (Tabv_campaign.Recheck.property_source p)
          with
          | [ q ] ->
            if not (String.equal (Property.to_string p) (Property.to_string q))
            then
              Alcotest.failf "%s did not round trip" p.Property.name
          | _ -> Alcotest.failf "%s parsed to several" p.Property.name)
        (Tabv_duv.Des56_props.all @ Tabv_duv.Des56_props.tlm_reviewed ()
        @ Tabv_duv.Memctrl_props.all)) ]

(* --- chunked writes ------------------------------------------------ *)

(* The writer hands the file whole records about 64 KiB at a time:
   one write decision per chunk under the IO hook (a record each would
   be thousands), and every chunk ends on a record boundary, so a
   crash between two chunks leaves a trace whose verified prefix is
   exactly the chunks written. *)
let chunk_cases =
  [ case "a long recording is written in whole-record 64 KiB chunks" (fun () ->
      with_temp (fun path ->
          let writes = ref [] in
          Tabv_core.Io.interpose
            {
              Tabv_core.Io.on_write =
                (fun ~path:p ~offset ~len ->
                  if String.equal p path then writes := (offset, len) :: !writes;
                  Tabv_core.Io.Write_through);
              on_fsync = (fun ~path:_ -> Tabv_core.Io.Fsync_through);
              on_rename = (fun ~src:_ ~dst:_ -> Tabv_core.Io.Op_through);
              on_close = (fun ~path:_ -> Tabv_core.Io.Op_through);
            };
          Fun.protect ~finally:Tabv_core.Io.clear_interpose (fun () ->
              Writer.with_file ~path meta (fun w ->
                  for i = 0 to 24_999 do
                    Writer.sample w ~time:(i * 10)
                      [ ("a", Expr.VBool (i land 1 = 0));
                        ("n", Expr.VInt (i * 3)) ];
                    if i mod 100 = 0 then
                      Writer.span w ~label:"op" ~start_time:(i * 10)
                        ~end_time:((i * 10) + 5)
                  done));
          let full = In_channel.(with_open_bin path input_all) in
          let size = String.length full in
          if size < 200_000 then Alcotest.failf "only %d bytes recorded" size;
          let chunks = List.rev !writes in
          let bound = ((size + 65535) / 65536) + 1 in
          if List.length chunks > bound then
            Alcotest.failf "%d write decisions for %d bytes (at most %d)"
              (List.length chunks) size bound;
          (* Contiguous chunks covering the whole file. *)
          let covered =
            List.fold_left
              (fun at (offset, len) ->
                Alcotest.(check int) "chunk starts where the last ended" at
                  offset;
                at + len)
              0 chunks
          in
          Alcotest.(check int) "chunks cover the file" size covered;
          (* A file cut at the end of any non-final chunk is refused,
             and its verified prefix is exactly that chunk boundary. *)
          let cut_path = path ^ ".cut" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove cut_path with Sys_error _ -> ())
            (fun () ->
              List.iter
                (fun (offset, len) ->
                  let cut = offset + len in
                  if cut < size then begin
                    write_bytes cut_path (String.sub full 0 cut);
                    match read_all cut_path with
                    | () -> Alcotest.failf "cut at chunk end %d accepted" cut
                    | exception Reader.Format_error { valid_prefix; _ } ->
                      Alcotest.(check int) "verified prefix is the cut" cut
                        valid_prefix
                  end)
                chunks))) ]

(* --- bounded memory ----------------------------------------------- *)

(* A long synthetic trace streamed through the reader must keep live
   words flat: materializing it (the old Replay shape) would retain
   tens of words per sample and trip the bound. *)
let memory_cases =
  [ Alcotest.test_case "streaming a 200k-sample trace is O(signal count)"
      `Slow (fun () ->
        with_temp (fun path ->
            let n = 200_000 in
            Writer.with_file ~path meta (fun w ->
                for i = 0 to n - 1 do
                  Writer.sample w ~time:(i * 10)
                    [ ("a", Expr.VBool (i land 1 = 0));
                      ("n", Expr.VInt (i * 3)) ]
                done);
            Gc.full_major ();
            let baseline = (Gc.stat ()).Gc.live_words in
            let peak = ref baseline in
            let count = ref 0 in
            Reader.with_file path (fun reader ->
                Seq.iter
                  (fun _ ->
                    incr count;
                    if !count mod 50_000 = 0 then begin
                      Gc.full_major ();
                      let live = (Gc.stat ()).Gc.live_words in
                      if live > !peak then peak := live
                    end)
                  (Reader.to_seq reader));
            Alcotest.(check int) "all samples streamed" n !count;
            let growth = !peak - baseline in
            if growth > 1_000_000 then
              Alcotest.failf
                "live words grew by %d (trace is being materialized)" growth));
    (* The writer keeps two value arrays and one chunk of staged
       records, whatever the length of the run. *)
    Alcotest.test_case "writing a 200k-sample trace keeps live words flat"
      `Slow (fun () ->
        with_temp (fun path ->
            let n = 200_000 in
            Gc.full_major ();
            let baseline = (Gc.stat ()).Gc.live_words in
            let peak = ref baseline in
            Writer.with_file ~path meta (fun w ->
                for i = 0 to n - 1 do
                  Writer.sample w ~time:(i * 10)
                    [ ("a", Expr.VBool (i land 1 = 0));
                      ("n", Expr.VInt (i * 3)) ];
                  if i mod 50_000 = 0 then begin
                    Gc.full_major ();
                    let live = (Gc.stat ()).Gc.live_words in
                    if live > !peak then peak := live
                  end
                done);
            let growth = !peak - baseline in
            if growth > 100_000 then
              Alcotest.failf "live words grew by %d while writing" growth))
  ]

(* --- the stepping reader's edge cases ------------------------------ *)

let steps reader =
  let rec go acc =
    match Reader.step reader with
    | Reader.End -> List.rev acc
    | Reader.Changed -> go ((Reader.time reader, true) :: acc)
    | Reader.Unchanged -> go ((Reader.time reader, false) :: acc)
  in
  go []

let transaction_property name formula =
  Property.make ~name ~context:(Context.Transaction Context.Base_trans) formula

let edge_cases =
  [ case "a zero-signal trace steps unchanged and rechecks like its entries"
      (fun () ->
        with_temp (fun path ->
            Writer.with_file ~path meta (fun w ->
                List.iter (fun time -> Writer.sample w ~time []) [ 0; 10; 30 ]);
            Reader.with_file path (fun reader ->
                Alcotest.(check (list string)) "no signals" []
                  (Reader.dictionary reader);
                Alcotest.(check (list (pair int bool)))
                  "every sample unchanged"
                  [ (0, false); (10, false); (30, false) ]
                  (steps reader));
            (* Constant atoms only: the valuation is never primed, and
               every monitor takes a plain step. *)
            let properties =
              [ transaction_property "z1"
                  (Ltl.Always (Ltl.Next_n (1, Ltl.Atom (Expr.Bool true))));
                transaction_property "z2" (Ltl.Eventually (Ltl.Atom (Expr.Bool false)))
              ]
            in
            let _, trace = Reader.read_trace path in
            Tabv_checker.Progression.reset_universe ();
            let of_entries =
              Tabv_checker.Offline.snapshots
                (Tabv_checker.Offline.over_trace properties trace)
            in
            let rechecked =
              Tabv_campaign.Recheck.run ~workers:1 ~retries:0 ~trace:path
                properties
            in
            Alcotest.(check int) "samples" 3 rechecked.Tabv_campaign.Recheck.samples;
            Alcotest.(check bool) "same snapshots" true
              (of_entries = rechecked.Tabv_campaign.Recheck.snapshots)));
    case "spans before the dictionary are decoded, not samples" (fun () ->
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Writer.span w ~label:"read" ~start_time:0 ~end_time:5;
              Writer.span w ~label:"write" ~start_time:2 ~end_time:8;
              Writer.sample w ~time:10 [ ("a", Expr.VBool true); ("n", Expr.VInt 4) ];
              Writer.sample w ~time:20 [ ("a", Expr.VBool true); ("n", Expr.VInt 4) ];
              Writer.sample w ~time:30 [ ("a", Expr.VBool true); ("n", Expr.VInt 5) ]);
          Reader.with_file path (fun reader ->
              Alcotest.(check (list string)) "not read yet" [] (Reader.signals reader);
              Alcotest.(check (list string)) "dictionary" [ "a"; "n" ]
                (Reader.dictionary reader);
              Alcotest.(check int) "spans on the way" 2 (Reader.spans reader);
              Alcotest.(check int) "no sample consumed" 0 (Reader.samples reader);
              Alcotest.(check (list (pair int bool)))
                "steps" [ (10, true); (20, false); (30, true) ] (steps reader);
              Alcotest.(check bool) "last valuation" true
                (Reader.values reader = [| Expr.VBool true; Expr.VInt 5 |]));
          let seen = ref [] in
          let rechecked =
            Tabv_campaign.Recheck.run_validated ~retries:0 ~trace:path
              (fun _meta signals ->
                seen := signals;
                Ok (1, [ transaction_property "p" (Ltl.Always (Ltl.Atom (Expr.Var "a"))) ]))
          in
          Alcotest.(check (list string)) "planned on the dictionary" [ "a"; "n" ] !seen;
          match rechecked with
          | Error () -> Alcotest.fail "refused"
          | Ok result ->
            Alcotest.(check int) "samples" 3 result.Tabv_campaign.Recheck.samples;
            Alcotest.(check int) "spans" 2 result.Tabv_campaign.Recheck.spans;
            Alcotest.(check int) "no failures" 0
              (Tabv_campaign.Recheck.total_failures result)));
    case "a refused plan returns its refusal and leaks no descriptor" (fun () ->
      with_temp (fun path ->
          Writer.with_file ~path meta (fun w ->
              Writer.sample w ~time:0 [ ("a", Expr.VBool true) ]);
          let before = Helpers.open_fds () in
          (match
             Tabv_campaign.Recheck.run_validated ~retries:0 ~trace:path
               (fun meta signals -> Error (meta.Meta.model, signals))
           with
           | Ok _ -> Alcotest.fail "ran a refused plan"
           | Error (model, signals) ->
             Alcotest.(check string) "meta" "test-model" model;
             Alcotest.(check (list string)) "signals" [ "a" ] signals);
          (match
             Tabv_campaign.Recheck.run_validated ~retries:0 ~trace:path
               (fun _ _ -> failwith "plan raised")
           with
           | Ok _ | Error () -> Alcotest.fail "a raising plan returned"
           | exception Failure _ -> ());
          let full = In_channel.(with_open_bin path input_all) in
          write_bytes path (String.sub full 0 (String.length full - 1));
          (match
             Tabv_campaign.Recheck.run_validated ~retries:0 ~trace:path
               (fun _ _ -> Ok (1, []))
           with
           | Ok _ | Error () -> Alcotest.fail "a damaged trace rechecked"
           | exception Reader.Format_error _ -> ());
          Alcotest.(check (option int)) "no descriptor leaked" before
            (Helpers.open_fds ())));
    Alcotest.test_case "an unchanged sample allocates nothing" `Slow (fun () ->
        with_temp (fun path ->
            let n = 50_000 in
            Writer.with_file ~path meta (fun w ->
                for i = 0 to n - 1 do
                  Writer.sample w ~time:(i * 10)
                    [ ("a", Expr.VBool true); ("n", Expr.VInt 3) ]
                done);
            Reader.with_file path (fun reader ->
                ignore (Reader.dictionary reader);
                Alcotest.(check bool) "first sample changed" true
                  (Reader.step reader = Reader.Changed);
                let before = Gc.minor_words () in
                let unchanged = ref 0 in
                while Reader.step reader = Reader.Unchanged do
                  incr unchanged
                done;
                let words = Gc.minor_words () -. before in
                Alcotest.(check int) "unchanged samples" (n - 1) !unchanged;
                if words > 1000. then
                  Alcotest.failf "%.0f minor words for %d unchanged samples" words
                    !unchanged))) ]

let suite =
  ( "trace",
    roundtrip_cases @ corrupt_cases @ offline_cases @ recheck_cases
    @ chunk_cases @ memory_cases @ edge_cases )
