(* Test suite for the multicore campaign runner (lib/campaign): job
   matrix expansion, manifest parsing, crash isolation with bounded
   retries, deterministic result merging — plus the domain-safety
   regression for the interning/progression universes the runner
   relies on (each worker domain owns a private Domain.DLS universe). *)

open Tabv_psl
open Tabv_campaign
module C = Campaign
module M = Tabv_duv.Models
module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* --- Domain.DLS universes --------------------------------------------- *)

(* One worker's whole checker workload: reset to a fresh universe,
   intern a family of formulas, progress one of them over a fixed
   input sequence, and report everything observable — verdict, node
   count, memo statistics.  Running this concurrently on several
   domains must give each domain the same answers as running it
   alone (universes are private, so no cross-domain interference). *)
let universe_probe () =
  let open Tabv_checker in
  Progression.reset_universe ();
  let formulas =
    [ "always(!a || next[2](b))"; "a until b"; "eventually(a && b)";
      "always(a -> eventually(b))" ]
  in
  let interned = List.map (fun s -> Interned.intern (Parser.formula_only s)) formulas in
  let ids = List.map Interned.id interned in
  let env (a, b) name =
    match name with
    | "a" -> Some (Expr.VBool a)
    | "b" -> Some (Expr.VBool b)
    | _ -> None
  in
  let inputs = [ (true, false); (true, true); (false, false); (true, true) ] in
  let ob = ref (Progression.of_formula (Parser.formula_only "a until b")) in
  List.iter (fun v -> ob := Helpers.progression_step ~dt:10 (env v) !ob) inputs;
  let stats = Progression.cache_stats () in
  ( ids,
    Progression.verdict !ob,
    Interned.node_count (),
    stats.Progression.cache_hits,
    stats.Progression.cache_misses )

let dls_cases =
  [ slow_case "4 domains intern/progress the same formulas independently"
      (fun () ->
        let baseline = universe_probe () in
        let nodes_before = Interned.node_count () in
        let domains =
          List.init 4 (fun _ -> Domain.spawn (fun () -> universe_probe ()))
        in
        let results = List.map Domain.join domains in
        List.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "domain %d matches the single-domain run" i)
              true (r = baseline))
          results;
        (* Peer domains never touched this domain's universe. *)
        Alcotest.(check int) "caller universe untouched" nodes_before
          (Interned.node_count ()));
    case "reset_universe starts a fresh interning universe" (fun () ->
      Tabv_checker.Progression.reset_universe ();
      let n0 = Interned.node_count () in
      ignore (Interned.intern (Parser.formula_only "always(a -> next(b))"));
      Alcotest.(check bool) "interning grows the universe" true
        (Interned.node_count () > n0);
      Tabv_checker.Progression.reset_universe ();
      Alcotest.(check int) "fresh universe after reset" n0
        (Interned.node_count ())) ]

(* --- matrix expansion -------------------------------------------------- *)

let job_label j =
  Printf.sprintf "%s/%s/s%d" (M.duv_name j.C.duv) (M.level_name j.C.level)
    j.C.seed

let matrix_cases =
  [ case "expansion is DUV-major, then level, then seed" (fun () ->
      let jobs =
        C.expand_matrix ~duvs:[ M.Des56; M.Colorconv ]
          ~levels:[ M.Rtl; M.Tlm_ca ] ~seeds:[ 1; 2 ] ~ops:10 ()
      in
      Alcotest.(check (list string)) "order"
        [ "des56/rtl/s1"; "des56/rtl/s2"; "des56/tlm-ca/s1"; "des56/tlm-ca/s2";
          "colorconv/rtl/s1"; "colorconv/rtl/s2"; "colorconv/tlm-ca/s1";
          "colorconv/tlm-ca/s2" ]
        (List.map job_label jobs));
    case "tlm-lt is kept for DES56 and skipped elsewhere" (fun () ->
      let jobs =
        C.expand_matrix ~duvs:[ M.Des56; M.Colorconv; M.Memctrl ]
          ~levels:[ M.Tlm_lt ] ~seeds:[ 1 ] ~ops:10 ()
      in
      Alcotest.(check (list string)) "only des56" [ "des56/tlm-lt/s1" ]
        (List.map job_label jobs));
    case "validate rejects what the testbenches cannot run" (fun () ->
      let bad = C.job ~duv:M.Memctrl ~level:M.Tlm_lt ~seed:1 ~ops:10 () in
      (match C.validate bad with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "memctrl/tlm-lt accepted");
      (match C.validate (C.job ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:0 ()) with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "ops=0 accepted");
      match
        C.run [ bad ]
      with
      | _ -> Alcotest.fail "run accepted an invalid job"
      | exception Invalid_argument _ -> ());
    case "name round-trips" (fun () ->
      List.iter
        (fun duv ->
          Alcotest.(check bool) (M.duv_name duv) true
            (M.duv_of_name (M.duv_name duv) = Some duv))
        [ M.Des56; M.Colorconv; M.Memctrl ];
      List.iter
        (fun level ->
          Alcotest.(check bool) (M.level_name level) true
            (M.level_of_name (M.level_name level)
             = Some level))
        [ M.Rtl; M.Tlm_ca; M.Tlm_at; M.Tlm_lt ];
      List.iter
        (fun sel ->
          Alcotest.(check bool) (C.selection_name sel) true
            (C.selection_of_name (C.selection_name sel) = Some sel))
        [ C.All; C.No_checkers; C.Take 5 ]) ]

(* --- manifests --------------------------------------------------------- *)

let manifest_cases =
  [ case "explicit jobs and a matrix compose" (fun () ->
      let doc =
        {|{ "retries": 2,
            "jobs": [ { "duv": "memctrl", "level": "tlm-at", "seed": 9,
                        "ops": 25, "props": 3 } ],
            "matrix": { "duvs": ["des56"], "levels": ["rtl", "tlm-lt"],
                        "seeds": [1], "ops": 10, "props": "none" } }|}
      in
      match C.manifest_of_json (J.of_string doc) with
      | Error msg -> Alcotest.fail msg
      | Ok m ->
        Alcotest.(check (option int)) "retries" (Some 2) m.C.manifest_retries;
        Alcotest.(check (list string)) "jobs"
          [ "memctrl/tlm-at/s9"; "des56/rtl/s1"; "des56/tlm-lt/s1" ]
          (List.map job_label m.C.manifest_jobs);
        let explicit = List.hd m.C.manifest_jobs in
        Alcotest.(check bool) "props take 3" true
          (explicit.C.selection = C.Take 3);
        Alcotest.(check bool) "matrix props none" true
          ((List.nth m.C.manifest_jobs 1).C.selection = C.No_checkers));
    case "unknown keys are rejected" (fun () ->
      match
        C.manifest_of_json
          (J.of_string
             {|{ "jobs": [ { "duv": "des56", "level": "rtl", "seed": 1,
                             "ops": 5, "wat": true } ] }|})
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown job key accepted");
    case "empty manifests are refused" (fun () ->
      match C.manifest_of_json (J.of_string "{}") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty manifest accepted") ]

(* --- JSON parser (Report_json.of_string) ------------------------------- *)

let json_parser_cases =
  [ case "of_string inverts to_string" (fun () ->
      let doc =
        J.Assoc
          [ ("s", J.String "a\"b\\c\n\t\xe2\x82\xac");
            ("i", J.Int (-42));
            ("f", J.Float 1.5);
            ("l", J.List [ J.Bool true; J.Null; J.Int 0 ]);
            ("o", J.Assoc [ ("nested", J.List []) ]) ]
      in
      Alcotest.(check string) "round trip" (J.to_string doc)
        (J.to_string (J.of_string (J.to_string doc))));
    case "numbers parse as Int without fraction/exponent" (fun () ->
      Alcotest.(check bool) "int" true (J.of_string "17" = J.Int 17);
      Alcotest.(check bool) "float" true (J.of_string "1.25" = J.Float 1.25);
      Alcotest.(check bool) "exponent" true (J.of_string "1e2" = J.Float 100.));
    case "unicode escapes decode to UTF-8" (fun () ->
      Alcotest.(check bool) "euro sign" true
        (J.of_string {|"€"|} = J.String "\xe2\x82\xac"));
    case "malformed documents raise Parse_error with a position" (fun () ->
      List.iter
        (fun doc ->
          match J.of_string doc with
          | _ -> Alcotest.failf "accepted %S" doc
          | exception J.Parse_error { line; col; _ } ->
            Alcotest.(check bool) "position" true (line >= 1 && col >= 1))
        [ "{"; "[1,]"; "\"unterminated"; "{\"a\":1} trailing"; "nul"; "{ not json" ]);
    case "member reads object fields" (fun () ->
      let doc = J.of_string {|{ "a": 1, "b": [2] }|} in
      Alcotest.(check bool) "a" true (J.member "a" doc = Some (J.Int 1));
      Alcotest.(check bool) "missing" true (J.member "z" doc = None);
      Alcotest.(check bool) "non-object" true (J.member "a" (J.Int 3) = None));
    case "\\uXXXX escapes cover all UTF-8 widths" (fun () ->
      List.iter
        (fun (doc, expected) ->
          match J.of_string doc with
          | J.String s -> Alcotest.(check string) doc expected s
          | _ -> Alcotest.failf "%s: not a string" doc)
        [ ({|"\u0041"|}, "A");  (* 1 byte *)
          ({|"\u00e9"|}, "\xc3\xa9");  (* 2 bytes: U+00E9 *)
          ({|"\u20AC"|}, "\xe2\x82\xac");  (* 3 bytes, upper hex *)
          ({|"\u0000"|}, "\x00");  (* NUL decodes, not truncates *)
          ({|"\ufffd"|}, "\xef\xbf\xbd") (* U+FFFD *) ]);
    case "surrogate pairs decode to one 4-byte scalar" (fun () ->
      (* U+1F600 GRINNING FACE, encoded the only way JSON allows. *)
      Alcotest.(check bool) "grinning face" true
        (J.of_string {|"\ud83d\ude00"|} = J.String "\xf0\x9f\x98\x80");
      (* round trip: the emitter escapes control bytes only, so the
         4-byte sequence survives to_string verbatim *)
      let doc = J.of_string {|"\ud83d\ude00"|} in
      Alcotest.(check bool) "re-parse" true (J.of_string (J.to_string doc) = doc));
    case "unpaired surrogates are rejected" (fun () ->
      List.iter
        (fun doc ->
          match J.of_string doc with
          | _ -> Alcotest.failf "accepted %s" doc
          | exception J.Parse_error _ -> ())
        [ {|"\ud83d"|};  (* lone high *)
          {|"\ud83dx"|};  (* high + ordinary char *)
          {|"\ud83dA"|};  (* high + non-surrogate escape *)
          {|"\ude00"|};  (* lone low *)
          {|"\u12g4"|} (* bad hex digit *) ]) ]

(* A small but non-trivial matrix shared by the merging, journal and
   executor suites. *)
let small_matrix =
  C.expand_matrix ~duvs:[ M.Des56; M.Colorconv ] ~levels:[ M.Rtl; M.Tlm_ca ]
    ~seeds:[ 1 ] ~ops:8 ()

(* --- wire framing ------------------------------------------------------ *)

let wire_version = Executor.frame_version

let wire_cases =
  [ case "frames are length-prefixed with a fixed 11-byte versioned header"
      (fun () ->
      Alcotest.(check string) "encoding" "0100000005\nhello"
        (Frame.encode ~version:1 "hello");
      Alcotest.(check int) "header length" 11 Frame.versioned_header_length;
      match Frame.encode ~version:256 "x" with
      | _ -> Alcotest.fail "version 256 encoded"
      | exception Invalid_argument _ -> ());
    case "a stream fed byte by byte pops whole frames" (fun () ->
      let s = Frame.stream ~expect_version:wire_version () in
      let bytes =
        Frame.encode ~version:wire_version "first"
        ^ Frame.encode ~version:wire_version ""
      in
      String.iter (fun c -> Frame.feed s (String.make 1 c)) bytes;
      Alcotest.(check (option string)) "first" (Some "first") (Frame.pop s);
      Alcotest.(check (option string)) "empty frame" (Some "") (Frame.pop s);
      Alcotest.(check (option string)) "drained" None (Frame.pop s);
      Alcotest.(check int) "no residue" 0 (Frame.stream_length s));
    case "a corrupt header raises Protocol_error" (fun () ->
      (* Non-hex bytes, and the underscores a lenient int_of_string
         would accept. *)
      List.iter
        (fun header ->
          let s = Frame.stream ~expect_version:wire_version () in
          Frame.feed s (header ^ "whatever");
          match Frame.pop s with
          | _ -> Alcotest.failf "corrupt header %S accepted" header
          | exception Frame.Protocol_error _ -> ())
        [ "not-hex!!!\n"; "01_0000005\n"; "0100000005x" ]) ]

(* --- worker ops -------------------------------------------------------- *)

(* Every op a worker serves, run once on a sample spec: the spec must
   survive its codec unchanged, and the result must re-emit the same
   bytes after a round trip — what crosses a worker pipe and lands in
   a journal is exactly what the report is built from. *)
let op_cases =
  [ slow_case "every worker op's spec and result round-trip through JSON"
      (fun () ->
      let trace = Filename.temp_file "tabv_test" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove trace)
        (fun () ->
          let model = Option.get (M.of_name "des56-rtl") in
          ignore
            (Tabv_trace.Writer.with_file ~path:trace
               (Tabv_trace.Meta.make ~model:"des56-rtl" ~seed:1 ~ops:5)
               (fun writer ->
                 M.run
                   { Tabv_duv.Testbench.default with trace_writer = Some writer }
                   model ~seed:1 ~ops:5));
          let property = Tabv_campaign.Recheck.property_source in
          let samples =
            [ ( "campaign_job",
                [ {|{"duv":"des56","level":"rtl","seed":1,"ops":5,"props":"all","chaos":0}|};
                  {|{"duv":"memctrl","level":"tlm-at","seed":7,"ops":12,"props":"2","chaos":3}|};
                  {|{"duv":"colorconv","level":"tlm-ca","seed":2,"ops":6,"props":"all","chaos":1,"chaos_kind":"abort"}|};
                  {|{"duv":"des56","level":"tlm-lt","seed":3,"ops":4,"props":"none","chaos":2,"chaos_kind":"busy_loop"}|} ] );
              ( "qualify_job",
                [ {|{"duv":"colorconv","levels":["rtl"],"seed":1,"ops":5,"index":0}|} ] );
              ( "recheck_job",
                [ J.to_string
                    (J.Assoc
                       [ ("trace", J.String trace);
                         ( "properties",
                           J.List
                             (List.map
                                (fun p -> J.String (property p))
                                Tabv_duv.Des56_props.all) ) ]) ] );
              ( "serve_request",
                [ {|{"request":{"id":0,"op":"check","model":"des56-rtl","seed":1,"ops":5}}|};
                  {|{"state_dir":"s","request":{"id":0,"op":"qualify","duv":"des56","levels":["rtl"],"seed":1,"ops":5,"workers":1,"retries":1}}|} ] ) ]
          in
          List.iter
            (fun (Executor.Op op) ->
              match List.assoc_opt op.Executor.name samples with
              | None -> Alcotest.failf "%s: no sample spec" op.Executor.name
              | Some texts ->
                let specs =
                  List.map
                    (fun text ->
                      match op.Executor.spec.of_json (J.of_string text) with
                      | Error e -> Alcotest.failf "%s: %s" op.Executor.name e
                      | Ok spec ->
                        Alcotest.(check string)
                          (op.Executor.name ^ " spec") text
                          (J.to_string (op.Executor.spec.to_json spec));
                        spec)
                    texts
                in
                (* The first sample arms no chaos: run it. *)
                let emitted =
                  J.to_string
                    (op.Executor.result.to_json
                       (op.Executor.run (List.hd specs) ~attempt:1))
                in
                (match op.Executor.result.of_json (J.of_string emitted) with
                 | Error e -> Alcotest.failf "%s result: %s" op.Executor.name e
                 | Ok back ->
                   Alcotest.(check string)
                     (op.Executor.name ^ " result re-emission")
                     emitted
                     (J.to_string (op.Executor.result.to_json back))))
            Tabv_serve.Handler.worker_ops;
          Alcotest.(check int) "one sample list per op"
            (List.length samples)
            (List.length Tabv_serve.Handler.worker_ops))) ]

(* --- write-ahead journal ----------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "tabv_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let journal_open ~path ~kind ~fingerprint ~resume =
  match Journal.open_ ~path ~kind ~fingerprint ~resume with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let journal_cases =
  [ case "appended records replay sorted by id on resume" (fun () ->
      with_temp_journal (fun path ->
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:false in
        Journal.append j ~id:2 (J.String "two");
        Journal.append j ~id:0 (J.String "zero");
        Journal.close j;
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        Alcotest.(check bool) "sorted replay" true
          (Journal.replayed j = [ (0, J.String "zero"); (2, J.String "two") ]);
        Alcotest.(check int) "records" 2 (Journal.records j);
        Journal.append j ~id:1 (J.String "one");
        Journal.close j;
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        Alcotest.(check int) "records after second resume" 3 (Journal.records j);
        Journal.close j));
    case "resume refuses a different campaign" (fun () ->
      with_temp_journal (fun path ->
        Journal.close
          (journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:false);
        (match Journal.open_ ~path ~kind:"t" ~fingerprint:"other" ~resume:true with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "fingerprint mismatch accepted");
        match Journal.open_ ~path ~kind:"u" ~fingerprint:"fp" ~resume:true with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "kind mismatch accepted"));
    case "a torn trailing line is dropped, not fatal" (fun () ->
      with_temp_journal (fun path ->
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:false in
        Journal.append j ~id:0 (J.Int 7);
        Journal.close j;
        (* Simulate a crash mid-append: half a record, no newline. *)
        let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
        output_string oc {|{"id":1,"rec|};
        close_out oc;
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        Alcotest.(check bool) "intact record survives" true
          (Journal.replayed j = [ (0, J.Int 7) ]);
        (* The torn bytes were truncated away: appending now yields a
           well-formed journal again. *)
        Journal.append j ~id:1 (J.Int 8);
        Journal.close j;
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        Alcotest.(check bool) "clean after truncate + append" true
          (Journal.replayed j = [ (0, J.Int 7); (1, J.Int 8) ]);
        Journal.close j));
    slow_case "campaign resume replays journaled jobs byte-identically" (fun () ->
      with_temp_journal (fun path ->
        let jobs = small_matrix in
        let fingerprint = C.fingerprint ~retries:1 jobs in
        let open_j resume =
          journal_open ~path ~kind:C.journal_kind ~fingerprint ~resume
        in
        let run journal = C.run ~workers:2 ~journal jobs in
        let j = open_j false in
        let fresh = run j in
        Journal.close j;
        let j = open_j true in
        let resumed = run j in
        Journal.close j;
        Alcotest.(check int) "all jobs replayed" (List.length jobs)
          resumed.C.replayed;
        Alcotest.(check int) "fresh run replayed nothing" 0 fresh.C.replayed;
        Alcotest.(check string) "byte-identical report"
          (J.to_string (C.report_json fresh))
          (J.to_string (C.report_json resumed))));
    slow_case "an interrupted campaign leaves a resumable journal" (fun () ->
      with_temp_journal (fun path ->
        let jobs = small_matrix in
        let fingerprint = C.fingerprint ~retries:1 jobs in
        let open_j resume =
          journal_open ~path ~kind:C.journal_kind ~fingerprint ~resume
        in
        (* One worker + a poll counter: the in-domain pool checks
           [interrupted] once before claiming each job, so exactly two
           jobs complete before the stop. *)
        let polls = ref 0 in
        let j = open_j false in
        let partial =
          C.run ~workers:1 ~journal:j
            ~interrupted:(fun () -> incr polls; !polls > 2)
            jobs
        in
        Journal.close j;
        Alcotest.(check int) "two jobs pending" 2 partial.C.pending;
        Alcotest.(check bool) "interrupted runs are not green" false
          (C.all_green partial);
        Alcotest.(check int) "two records journaled" 2
          (List.length partial.C.results);
        let j = open_j true in
        let resumed = C.run ~workers:2 ~journal:j jobs in
        Journal.close j;
        Alcotest.(check int) "completed jobs replayed" 2 resumed.C.replayed;
        Alcotest.(check int) "nothing pending" 0 resumed.C.pending;
        Alcotest.(check string) "resumed report = uninterrupted report"
          (J.to_string (C.report_json (C.run ~workers:2 jobs)))
          (J.to_string (C.report_json resumed)))) ]

(* --- subprocess executor ----------------------------------------------- *)

(* The executor tests' workers re-execute this test binary, whose
   [_worker] hook is in Helpers. *)
let subprocess ?job_timeout_s () =
  Executor.config ?job_timeout_s Executor.Subprocess

let backoff_cases =
  [ case "retry backoff is deterministic, jittered and capped" (fun () ->
      let base_s = 0.25 in
      let d ~seed ~task attempt =
        Tabv_serve.Client.backoff_s ~seed ~task ~base_s ~attempt
      in
      (* Pure function of (seed, task, attempt). *)
      Alcotest.(check (float 0.)) "replayable"
        (d ~seed:3 ~task:7 4) (d ~seed:3 ~task:7 4);
      Alcotest.(check (float 0.)) "first attempt is the base"
        base_s (d ~seed:3 ~task:7 1);
      (* Decorrelation: two clients (distinct seeds) rejected at the
         same instant must not re-stampede in lockstep. *)
      Alcotest.(check bool) "distinct seeds decorrelate" true
        (d ~seed:1 ~task:0 3 <> d ~seed:2 ~task:0 3);
      (* Every delay stays inside [base, 32*base]. *)
      for attempt = 1 to 12 do
        let delay = d ~seed:11 ~task:2 attempt in
        Alcotest.(check bool)
          (Printf.sprintf "attempt %d in [base, 32*base]" attempt)
          true
          (delay >= base_s && delay <= 32. *. base_s)
      done;
      Alcotest.(check (float 0.)) "degenerate base yields no delay" 0.
        (Tabv_serve.Client.backoff_s ~seed:1 ~task:1 ~base_s:0. ~attempt:3)) ]

(* A toy op over integers that records the specs it ran. *)
let counting_op ran =
  let ints =
    { Executor.to_json = (fun n -> J.Int n);
      of_json = (function J.Int n -> Ok n | _ -> Error "expected an integer") }
  in
  let lock = Mutex.create () in
  { Executor.name = "count"; spec = ints; result = ints;
    run =
      (fun n ~attempt:_ ->
        Mutex.protect lock (fun () -> ran := n :: !ran);
        n * 10) }

let executor_cases =
  [ slow_case "subprocess reports are byte-identical to in-domain" (fun () ->
      let report exec =
        J.to_string (C.report_json (C.run ~workers:2 ~exec small_matrix))
      in
      Alcotest.(check string) "executor-independent"
        (report (Executor.config Executor.In_domain))
        (report (subprocess ())));
    slow_case "chaos crashes read identically across executors" (fun () ->
      (* One job that crashes on attempt 1 and completes on the retry,
         one that crashes forever: attempts, outcomes and the recorded
         error string must not betray where the job ran. *)
      let jobs =
        [ C.job ~chaos:1 ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 ();
          C.job ~chaos:99 ~duv:M.Colorconv ~level:M.Rtl ~seed:1 ~ops:5 () ]
      in
      let report exec =
        J.to_string (C.report_json (C.run ~workers:2 ~retries:1 ~exec jobs))
      in
      Alcotest.(check string) "executor-independent"
        (report (Executor.config Executor.In_domain))
        (report (subprocess ())));
    slow_case "an aborting job is contained and classified as killed" (fun () ->
      let jobs =
        [ C.job ~chaos:99 ~chaos_kind:(C.Chaos_hard Tabv_fault.Fault.Abort)
            ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 ();
          C.job ~duv:M.Colorconv ~level:M.Rtl ~seed:1 ~ops:5 () ]
      in
      let s = C.run ~workers:2 ~retries:1 ~exec:(subprocess ()) jobs in
      Alcotest.(check int) "killed" 1 s.C.killed;
      Alcotest.(check int) "completed" 1 s.C.completed;
      (match (List.hd s.C.results).C.outcome with
       | C.Killed { signal } ->
         Alcotest.(check int) "SIGABRT" 6 signal
       | _ -> Alcotest.fail "expected Killed");
      Alcotest.(check int) "attempts = retries + 1" 2
        (List.hd s.C.results).C.attempts;
      Alcotest.(check bool) "survivor unharmed" true
        ((List.nth s.C.results 1).C.outcome = C.Completed));
    slow_case "a busy-looping job trips the wall-clock watchdog" (fun () ->
      let jobs =
        [ C.job ~chaos:99 ~chaos_kind:(C.Chaos_hard Tabv_fault.Fault.Busy_loop)
            ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 ();
          C.job ~duv:M.Des56 ~level:M.Rtl ~seed:2 ~ops:5 () ]
      in
      let s =
        C.run ~workers:2 ~retries:0 ~exec:(subprocess ~job_timeout_s:0.5 ())
          jobs
      in
      Alcotest.(check int) "timed out" 1 s.C.timed_out;
      Alcotest.(check bool) "outcome" true
        ((List.hd s.C.results).C.outcome = C.Timed_out);
      Alcotest.(check bool) "survivor unharmed" true
        ((List.nth s.C.results 1).C.outcome = C.Completed));
    slow_case "qualify reports are executor-independent" (fun () ->
      let report exec =
        J.to_string
          (Qualify.report_json
             (Qualify.run ~workers:2 ~exec ~duv:M.Colorconv ~levels:[ M.Rtl ]
                ~seed:1 ~ops:6 ()))
      in
      Alcotest.(check string) "executor-independent"
        (report (Executor.config Executor.In_domain))
        (report (subprocess ())));
    slow_case "qualify journals resume byte-identically" (fun () ->
      with_temp_journal (fun path ->
        let duv = M.Colorconv and levels = [ M.Rtl ] and seed = 1 and ops = 6 in
        let fingerprint = Qualify.fingerprint ~duv ~levels ~seed ~ops in
        let open_j resume =
          journal_open ~path ~kind:Qualify.journal_kind ~fingerprint ~resume
        in
        let run journal =
          Qualify.run ~workers:2 ~journal ~duv ~levels ~seed ~ops ()
        in
        let j = open_j false in
        let fresh = run j in
        Journal.close j;
        let j = open_j true in
        let resumed = run j in
        Journal.close j;
        Alcotest.(check string) "byte-identical report"
          (J.to_string (Qualify.report_json fresh))
          (J.to_string (Qualify.report_json resumed))));
    slow_case "qualify raises Interrupted instead of a partial matrix" (fun () ->
      let polls = ref 0 in
      match
        Qualify.run ~workers:1 ~interrupted:(fun () -> incr polls; !polls > 2)
          ~duv:M.Colorconv ~levels:[ M.Rtl ] ~seed:1 ~ops:6 ()
      with
      | _ -> Alcotest.fail "expected Interrupted"
      | exception Qualify.Interrupted -> ());
    case "an in-domain pool spawns no more domains than it has tasks" (fun () ->
      (* Every spawned domain polls [interrupted] before taking a task,
         so the distinct pollers are the domains the pool spawned. *)
      let lock = Mutex.create () and pollers = ref [] in
      let interrupted () =
        let self = (Domain.self () :> int) in
        Mutex.protect lock (fun () ->
            if not (List.mem self !pollers) then pollers := self :: !pollers);
        false
      in
      ignore
        (Executor.run (Executor.config Executor.In_domain) ~workers:8
           ~retries:0 ~interrupted (counting_op (ref [])) [ 0 ]);
      Alcotest.(check int) "domains for one task and eight workers" 1
        (List.length !pollers));
    case "a journal's tasks are replayed, never run" (fun () ->
      with_temp_journal (fun path ->
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:false in
        Journal.append j ~id:1
          (J.Assoc [ ("attempts", J.Int 3); ("payload", J.Int 77) ]);
        Journal.close j;
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        let ran = ref [] in
        let slots =
          Executor.run (Executor.config Executor.In_domain) ~workers:2
            ~retries:0 ~journal:j (counting_op ran) [ 0; 1; 2 ]
        in
        Journal.close j;
        Alcotest.(check (list int)) "only the unjournaled tasks ran" [ 0; 2 ]
          (List.sort compare !ran);
        Alcotest.(check bool) "the recorded attempts and result" true
          (slots.(1)
           = Some { Executor.attempts = 3; outcome = Executor.Done 77; replayed = true });
        Alcotest.(check bool) "a task that ran" true
          (slots.(2)
           = Some { Executor.attempts = 1; outcome = Executor.Done 20; replayed = false });
        let j = journal_open ~path ~kind:"t" ~fingerprint:"fp" ~resume:true in
        Alcotest.(check (list int)) "completed tasks journaled" [ 0; 1; 2 ]
          (List.map fst (Journal.replayed j));
        Journal.close j));
    case "an undecodable journal record is refused alike by every batch"
      (fun () ->
      let refusal ~kind ~fingerprint run =
        with_temp_journal (fun path ->
          let j = journal_open ~path ~kind ~fingerprint ~resume:false in
          Journal.append j ~id:0
            (J.of_string {|{"attempts":1,"payload":{"bogus":1}}|});
          Journal.close j;
          let j = journal_open ~path ~kind ~fingerprint ~resume:true in
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              match run j with
              | () -> Alcotest.fail "an undecodable record was replayed"
              | exception Executor.Bad_record message -> message))
      in
      let jobs = [ C.job ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 () ] in
      Alcotest.(check string) "campaign"
        {|journal record 0: job payload: missing key "sim_time_ns"|}
        (refusal ~kind:C.journal_kind ~fingerprint:(C.fingerprint ~retries:1 jobs)
           (fun journal -> ignore (C.run ~journal jobs)));
      let duv = M.Des56 and levels = [ M.Rtl ] and seed = 1 and ops = 5 in
      Alcotest.(check string) "qualify"
        {|journal record 0: qualify payload: missing key "faults_triggered"|}
        (refusal ~kind:Qualify.journal_kind
           ~fingerprint:(Qualify.fingerprint ~duv ~levels ~seed ~ops)
           (fun journal -> ignore (Qualify.run ~journal ~duv ~levels ~seed ~ops ()))));
    slow_case "a worker answers an unknown op with an error and keeps serving"
      (fun () ->
      let p = Executor.spawn () in
      Fun.protect
        ~finally:(fun () -> ignore (Executor.kill p))
        (fun () ->
          let await op =
            let deadline = Unix.gettimeofday () +. 60. in
            let rec go () =
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "no reply within 60 s";
              ignore (Unix.select [ Executor.reply_fd p ] [] [] 1.);
              match Executor.read_reply p op with
              | Some reply -> reply
              | None -> go ()
            in
            go ()
          in
          let unknown = { (counting_op (ref [])) with Executor.name = "no_such_op" } in
          Executor.send p unknown ~attempt:1 0;
          (match await unknown with
           | Executor.Refused message ->
             Alcotest.(check string) "error reply"
               {|worker: request: unknown op "no_such_op"|} message
           | _ -> Alcotest.fail "expected an error reply");
          Executor.send p C.op ~attempt:1
            (C.job ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:2 ());
          match await C.op with
          | Executor.Replied _ -> ()
          | _ -> Alcotest.fail "the worker stopped serving")) ]

(* --- running ----------------------------------------------------------- *)

let run_cases =
  [ slow_case "reports are byte-identical for 1 and 2 workers" (fun () ->
      let report workers =
        J.to_string (C.report_json (C.run ~workers small_matrix))
      in
      Alcotest.(check string) "deterministic" (report 1) (report 2));
    slow_case "summary counts and per-job results line up" (fun () ->
      let s = C.run ~workers:2 small_matrix in
      Alcotest.(check int) "completed" (List.length small_matrix) s.C.completed;
      Alcotest.(check int) "crashed" 0 s.C.crashed;
      Alcotest.(check bool) "green" true (C.all_green s);
      Alcotest.(check (list int)) "ascending job ids"
        (List.init (List.length small_matrix) Fun.id)
        (List.map (fun r -> r.C.job_id) s.C.results);
      List.iter
        (fun r ->
          Alcotest.(check int) (job_label r.C.job ^ " attempts") 1 r.C.attempts;
          Alcotest.(check bool) (job_label r.C.job ^ " completed") true
            (r.C.outcome = C.Completed);
          Alcotest.(check int)
            (job_label r.C.job ^ " completed ops")
            r.C.job.C.ops r.C.completed_ops)
        s.C.results;
      Alcotest.(check bool) "merged metrics non-empty" true
        (s.C.merged_metrics <> []));
    slow_case "a crashing job retries and then completes" (fun () ->
      let jobs =
        [ C.job ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 ();
          C.job ~chaos:1 ~duv:M.Des56 ~level:M.Tlm_ca ~seed:1 ~ops:5 () ]
      in
      let s = C.run ~workers:2 ~retries:1 jobs in
      Alcotest.(check int) "completed" 2 s.C.completed;
      Alcotest.(check int) "crashed" 0 s.C.crashed;
      let retried = List.nth s.C.results 1 in
      Alcotest.(check int) "attempts" 2 retried.C.attempts;
      Alcotest.(check bool) "green" true (C.all_green s));
    slow_case "a persistently crashing job is isolated" (fun () ->
      let jobs =
        [ C.job ~chaos:99 ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 ();
          C.job ~duv:M.Colorconv ~level:M.Rtl ~seed:1 ~ops:5 () ]
      in
      let s = C.run ~workers:2 ~retries:1 jobs in
      Alcotest.(check int) "completed" 1 s.C.completed;
      Alcotest.(check int) "crashed" 1 s.C.crashed;
      Alcotest.(check bool) "not green" false (C.all_green s);
      let crashed = List.hd s.C.results in
      Alcotest.(check int) "attempts = retries + 1" 2 crashed.C.attempts;
      (match crashed.C.outcome with
       | C.Crashed { error } ->
         Alcotest.(check bool) "error recorded" true (String.length error > 0)
       | C.Completed | C.Killed _ | C.Timed_out ->
         Alcotest.fail "expected a crash");
      let survivor = List.nth s.C.results 1 in
      Alcotest.(check bool) "other job completed" true
        (survivor.C.outcome = C.Completed));
    slow_case "crashed jobs are stamped in the report JSON" (fun () ->
      let jobs = [ C.job ~chaos:99 ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 () ] in
      let s = C.run ~retries:0 jobs in
      let doc = J.of_string (J.to_string (C.report_json s)) in
      match J.member "jobs" doc with
      | Some (J.List [ job ]) ->
        Alcotest.(check bool) "outcome" true
          (J.member "outcome" job = Some (J.String "crashed"));
        Alcotest.(check bool) "error present" true
          (match J.member "error" job with
           | Some (J.String _) -> true
           | _ -> false)
      | _ -> Alcotest.fail "report jobs malformed");
    slow_case "property selection changes the attached checker set" (fun () ->
      let run_sel selection =
        let jobs = [ C.job ~selection ~duv:M.Des56 ~level:M.Rtl ~seed:1 ~ops:5 () ] in
        List.length (List.hd (C.run jobs).C.results).C.checker_stats
      in
      Alcotest.(check int) "none" 0 (run_sel C.No_checkers);
      Alcotest.(check int) "take 1" 1 (run_sel (C.Take 1));
      Alcotest.(check bool) "all" true (run_sel C.All > 1)) ]

let suite =
  ( "campaign",
    dls_cases @ matrix_cases @ manifest_cases @ json_parser_cases @ wire_cases
    @ op_cases @ journal_cases @ backoff_cases @ run_cases
    @ executor_cases )
