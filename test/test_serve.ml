(* Test suite for the verification service (lib/serve): the bounded
   fair scheduler with its shedding watermark and displacement tiers,
   the worker circuit breaker, the warm LRU result cache, versioned
   framing (including hostile-input fuzz of the incremental decoder),
   journal state-dir helpers — and the daemon end to end over a real
   Unix socket: byte-identity of cold/warm replies against the
   in-process one-shot path, explicit backpressure with scaled retry
   advice, cancellation on client disconnect, per-request deadlines,
   mid-frame silence timeouts, cache invalidation and graceful
   shutdown drain, the worker-lifecycle cases on both executors, and
   no descriptor left open once a daemon has drained. *)

open Tabv_serve
module J = Tabv_core.Report_json
module Frame = Tabv_core.Frame
module Journal = Tabv_campaign.Journal
module Models = Tabv_duv.Models

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- scheduler -------------------------------------------------------- *)

let sched_cases =
  [ case "round-robin is fair across two competing clients" (fun () ->
        let s = Sched.create ~bound:16 () in
        Sched.add_client s 1;
        Sched.add_client s 2;
        (* Client 1 floods, client 2 sends two; service must alternate
           while both have work. *)
        List.iter
          (fun item -> ignore (Sched.submit s ~client:1 item))
          [ "a1"; "a2"; "a3"; "a4" ];
        List.iter
          (fun item -> ignore (Sched.submit s ~client:2 item))
          [ "b1"; "b2" ];
        let order =
          List.init 6 (fun _ ->
              match Sched.next s with
              | Some (_, item) -> item
              | None -> Alcotest.fail "queue drained early")
        in
        Alcotest.(check (list string))
          "one item per client per revolution"
          [ "a1"; "b1"; "a2"; "b2"; "a3"; "a4" ]
          order;
        Alcotest.(check bool) "drained" true (Sched.next s = None));
    case "submissions over the bound are rejected" (fun () ->
        let s = Sched.create ~bound:2 () in
        Sched.add_client s 1;
        Alcotest.(check bool) "first fits" true
          (Sched.submit s ~client:1 "x" = `Accepted 1);
        Alcotest.(check bool) "second fits" true
          (Sched.submit s ~client:1 "y" = `Accepted 2);
        Alcotest.(check bool) "third rejected" true
          (Sched.submit s ~client:1 "z" = `Rejected);
        (* Draining one slot readmits. *)
        ignore (Sched.next s);
        Alcotest.(check bool) "readmitted after drain" true
          (Sched.submit s ~client:1 "z" = `Accepted 2));
    case "removing a client returns its queued work" (fun () ->
        let s = Sched.create ~bound:8 () in
        Sched.add_client s 1;
        Sched.add_client s 2;
        ignore (Sched.submit s ~client:1 "a");
        ignore (Sched.submit s ~client:2 "b");
        ignore (Sched.submit s ~client:2 "c");
        Alcotest.(check (list string)) "client 2's backlog comes back"
          [ "b"; "c" ]
          (Sched.remove_client s 2);
        Alcotest.(check int) "depth excludes the dropped work" 1
          (Sched.depth s);
        Alcotest.(check bool) "survivor still served" true
          (Sched.next s = Some (1, "a")));
    case "unknown client is a caller bug" (fun () ->
        let s = Sched.create ~bound:2 () in
        Alcotest.check_raises "submit before add_client"
          (Invalid_argument "Sched.submit: unknown client") (fun () ->
            ignore (Sched.submit s ~client:9 "x")));
    case "watermark sheds low-priority work behind better work" (fun () ->
        let s = Sched.create ~bound:4 ~watermark:2 () in
        Sched.add_client s 1;
        Alcotest.(check bool) "first accepted" true
          (Sched.submit ~priority:3 s ~client:1 "hi1" = `Accepted 1);
        Alcotest.(check bool) "second accepted" true
          (Sched.submit ~priority:3 s ~client:1 "hi2" = `Accepted 2);
        (* Depth is at the watermark and the backlog holds strictly
           better work: a low-priority submission is refused early
           even though the bound has room for it. *)
        Alcotest.(check bool) "low work shed at the watermark" true
          (Sched.submit ~priority:1 s ~client:1 "low" = `Rejected);
        Alcotest.(check int) "the refusal is counted" 1 (Sched.shed_count s);
        (* Equal-priority work still gets in below the bound. *)
        Alcotest.(check bool) "peer-priority work still admitted" true
          (Sched.submit ~priority:3 s ~client:1 "hi3" = `Accepted 3));
    case "a full queue displaces the freshest lowest-priority item" (fun () ->
        let s = Sched.create ~bound:2 ~watermark:2 () in
        Sched.add_client s 1;
        ignore (Sched.submit ~priority:0 s ~client:1 "low-old");
        ignore (Sched.submit ~priority:0 s ~client:1 "low-fresh");
        (match Sched.submit ~priority:2 s ~client:1 "hi" with
         | `Displaced (client, victim, depth) ->
           Alcotest.(check int) "victim owner" 1 client;
           Alcotest.(check string) "the freshest low item is evicted"
             "low-fresh" victim;
           Alcotest.(check int) "depth stays at the bound" 2 depth
         | `Accepted _ -> Alcotest.fail "bound not enforced"
         | `Rejected -> Alcotest.fail "better work must displace");
        Alcotest.(check int) "displacement is counted as shed" 1
          (Sched.shed_count s);
        Alcotest.(check bool) "the older low item survives" true
          (Sched.next s = Some (1, "low-old"));
        Alcotest.(check bool) "the displacer is queued" true
          (Sched.next s = Some (1, "hi")));
    case "equal priority never displaces at the bound" (fun () ->
        let s = Sched.create ~bound:1 ~watermark:1 () in
        Sched.add_client s 1;
        ignore (Sched.submit ~priority:1 s ~client:1 "a");
        Alcotest.(check bool) "peer work is rejected, not displaced" true
          (Sched.submit ~priority:1 s ~client:1 "b" = `Rejected)) ]

(* --- worker circuit breaker ------------------------------------------- *)

let breaker_cases =
  let module B = Sched.Breaker in
  [ case "consecutive failures trip the breaker at the threshold" (fun () ->
        let b = B.create ~threshold:2 ~cooldown_s:10. () in
        Alcotest.(check bool) "healthy slot is available" true
          (B.available b ~now:0.);
        B.record_failure b ~now:0.;
        Alcotest.(check bool) "one failure is below the threshold" true
          (B.available b ~now:1.);
        B.record_failure b ~now:1.;
        Alcotest.(check bool) "tripped" true (B.is_open b);
        Alcotest.(check bool) "quarantined during cooldown" false
          (B.available b ~now:5.);
        Alcotest.(check int) "one trip recorded" 1 (B.trips b));
    case "a success resets the consecutive-failure count" (fun () ->
        let b = B.create ~threshold:2 ~cooldown_s:10. () in
        B.record_failure b ~now:0.;
        B.record_success b;
        B.record_failure b ~now:1.;
        Alcotest.(check bool) "non-consecutive failures never trip" false
          (B.is_open b));
    case "cooldown expiry admits exactly one half-open probe" (fun () ->
        let b = B.create ~threshold:1 ~cooldown_s:5. () in
        B.record_failure b ~now:0.;
        Alcotest.(check bool) "open until the cooldown" false
          (B.available b ~now:4.9);
        Alcotest.(check bool) "half-open after the cooldown" true
          (B.available b ~now:5.1);
        B.probe_started b;
        Alcotest.(check bool) "no second probe while one is in flight" false
          (B.available b ~now:5.2);
        B.record_success b;
        Alcotest.(check bool) "probe success re-closes" true
          (B.available b ~now:5.3 && not (B.is_open b)));
    case "a failed probe re-opens with a fresh cooldown" (fun () ->
        let b = B.create ~threshold:1 ~cooldown_s:5. () in
        B.record_failure b ~now:0.;
        Alcotest.(check bool) "probe admitted" true (B.available b ~now:6.);
        B.probe_started b;
        B.record_failure b ~now:6.;
        Alcotest.(check bool) "straight back to quarantine" true (B.is_open b);
        Alcotest.(check bool) "the cooldown restarts from the probe" false
          (B.available b ~now:10.9);
        Alcotest.(check bool) "and expires again" true (B.available b ~now:11.1);
        Alcotest.(check int) "both trips counted" 2 (B.trips b)) ]

(* --- warm cache ------------------------------------------------------- *)

let entry report = { Warm.ok = true; report }

let warm_cases =
  [ case "LRU eviction keeps the recently used entries" (fun () ->
        let w = Warm.create ~bound:2 in
        Warm.add w "a" (entry "ra");
        Warm.add w "b" (entry "rb");
        (* Touch "a" so "b" is the LRU victim when "c" arrives. *)
        ignore (Warm.find w "a");
        Warm.add w "c" (entry "rc");
        Alcotest.(check bool) "a survives" true (Warm.find w "a" <> None);
        Alcotest.(check bool) "b evicted" true (Warm.find w "b" = None);
        Alcotest.(check bool) "c present" true (Warm.find w "c" <> None);
        Alcotest.(check int) "one eviction" 1 (Warm.evictions w));
    case "hit/miss counters and clear" (fun () ->
        let w = Warm.create ~bound:4 in
        Alcotest.(check bool) "miss on empty" true (Warm.find w "k" = None);
        Warm.add w "k" (entry "r");
        (match Warm.find w "k" with
         | Some e -> Alcotest.(check string) "bytes replayed" "r" e.Warm.report
         | None -> Alcotest.fail "expected a hit");
        Alcotest.(check int) "hits" 1 (Warm.hits w);
        Alcotest.(check int) "misses" 1 (Warm.misses w);
        Alcotest.(check int) "clear reports entries" 1 (Warm.clear w);
        Alcotest.(check int) "empty after clear" 0 (Warm.size w));
    case "re-adding a key replaces without eviction" (fun () ->
        let w = Warm.create ~bound:2 in
        Warm.add w "a" (entry "v1");
        Warm.add w "b" (entry "rb");
        Warm.add w "a" (entry "v2");
        Alcotest.(check int) "no eviction" 0 (Warm.evictions w);
        match Warm.find w "a" with
        | Some e -> Alcotest.(check string) "newest value" "v2" e.Warm.report
        | None -> Alcotest.fail "expected a hit") ]

(* --- versioned framing ------------------------------------------------ *)

let frame_cases =
  [ case "version mismatch fails with a named error" (fun () ->
        let s = Frame.stream ~expect_version:2 () in
        Frame.feed s (Frame.encode ~version:1 "{}");
        match Frame.pop s with
        | exception Frame.Protocol_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names both versions: %s" msg)
            true
            (contains msg "version mismatch"
             && contains msg "v1" && contains msg "v2")
        | _ -> Alcotest.fail "expected Protocol_error");
    case "matching version round-trips" (fun () ->
        let s = Frame.stream ~expect_version:1 () in
        Frame.feed s (Frame.encode ~version:1 "hello");
        Alcotest.(check bool) "payload back" true (Frame.pop s = Some "hello"));
    case "protocol events round-trip" (fun () ->
        let round event =
          match
            Protocol.event_of_json (Protocol.event_json ~id:7 event)
          with
          | Ok (7, back) -> back = event
          | _ -> false
        in
        Alcotest.(check bool) "rejected carries retry advice" true
          (round (Protocol.Rejected { retry_after_ms = 250 }));
        Alcotest.(check bool) "result carries the exact bytes" true
          (round (Protocol.Result { ok = true; warm = true; report = "{}\n" }));
        Alcotest.(check bool) "accepted carries the position" true
          (round (Protocol.Accepted { position = 3 }))) ]

(* Hostile-input fuzz of the incremental decoder: every truncation
   point, oversized length prefixes, header garbage, and random
   payloads under random chunking.  A {e negative} length prefix is
   impossible by construction — the header is eight hex digits, so the
   decoded length is always in [0, 0xffffffff]; the oversized case is
   the reachable form of that attack and is bounded by [max_frame]. *)
let frame_fuzz_cases =
  let version = 1 in
  [ case "truncation at every byte is a quiet partial frame" (fun () ->
        let frame = Frame.encode ~version "torn mid-flight" in
        for keep = 0 to String.length frame - 1 do
          let s = Frame.stream ~expect_version:version () in
          Frame.feed s (String.sub frame 0 keep);
          (match Frame.pop s with
           | None -> ()
           | Some _ -> Alcotest.failf "popped a frame from %d/%d bytes" keep
                         (String.length frame)
           | exception e ->
             Alcotest.failf "truncation at byte %d raised %s" keep
               (Printexc.to_string e));
          Alcotest.(check int)
            (Printf.sprintf "all %d bytes stay buffered" keep)
            keep (Frame.stream_length s)
        done);
    case "an oversized length prefix fails at header-decode time" (fun () ->
        (* The body never arrives: the lie must surface the moment the
           header is complete, not after buffering 16 MiB. *)
        let s = Frame.stream ~expect_version:version ~max_frame:1024 () in
        Frame.feed s (Printf.sprintf "%02x%08x\n" version 0x00ffffff);
        match Frame.pop s with
        | exception Frame.Protocol_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names the bound: %s" msg)
            true (contains msg "1024")
        | _ -> Alcotest.fail "expected Protocol_error");
    case "garbage where the version belongs raises, never stalls" (fun () ->
        List.iter
          (fun junk ->
            let s = Frame.stream ~expect_version:version () in
            Frame.feed s junk;
            match Frame.pop s with
            | exception Frame.Protocol_error _ -> ()
            | _ ->
              Alcotest.failf "junk header %S decoded quietly" junk)
          [ "zz0000000f\n";  (* non-hex version field *)
            "01zzzzzzzz\n";  (* non-hex length field *)
            "01000000050";   (* missing newline terminator *)
            String.make 11 '\xff' ]);
    Helpers.qtest ~count:200 "random payloads under random chunking round-trip"
      QCheck.(pair (small_list (string_of_size (QCheck.Gen.int_bound 40)))
                (int_range 1 7))
      (fun (payloads, chunk) ->
        let wire = String.concat "" (List.map (Frame.encode ~version) payloads) in
        let s = Frame.stream ~expect_version:version () in
        let decoded = ref [] in
        let n = String.length wire in
        let rec drain () =
          match Frame.pop s with
          | Some p -> decoded := p :: !decoded; drain ()
          | None -> ()
        in
        let i = ref 0 in
        while !i < n do
          let len = min chunk (n - !i) in
          Frame.feed s (String.sub wire !i len);
          drain ();
          i := !i + len
        done;
        List.rev !decoded = payloads && Frame.stream_length s = 0) ]

(* --- journal state dir ------------------------------------------------ *)

let journal_cases =
  [ case "state_path is per-kind and per-fingerprint" (fun () ->
        Alcotest.(check string) "composed path"
          (Filename.concat "/tmp/state" "campaign-abc123.journal")
          (Journal.state_path ~dir:"/tmp/state" ~kind:"campaign"
             ~fingerprint:"abc123");
        Alcotest.(check bool) "different fingerprints do not collide" true
          (Journal.state_path ~dir:"d" ~kind:"campaign" ~fingerprint:"a"
           <> Journal.state_path ~dir:"d" ~kind:"campaign" ~fingerprint:"b"));
    case "gc_stale removes only old journals" (fun () ->
        let dir = Filename.temp_file "tabv_serve_gc" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (Sys.readdir dir);
            Unix.rmdir dir)
          (fun () ->
            let touch name =
              let path = Filename.concat dir name in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc "x");
              path
            in
            let old_j = touch "campaign-old.journal" in
            let fresh_j = touch "campaign-fresh.journal" in
            let bystander = touch "notes.txt" in
            (* Age the first journal artificially. *)
            let past = Unix.gettimeofday () -. 10_000. in
            Unix.utimes old_j past past;
            let removed =
              Journal.gc_stale ~dir ~max_age_s:3600. ()
            in
            Alcotest.(check (list string)) "only the stale journal" [ old_j ]
              removed;
            Alcotest.(check bool) "stale gone" false (Sys.file_exists old_j);
            Alcotest.(check bool) "fresh kept" true (Sys.file_exists fresh_j);
            Alcotest.(check bool) "non-journal kept" true
              (Sys.file_exists bystander)));
    case "gc_stale on a missing dir is a no-op" (fun () ->
        Alcotest.(check (list string)) "nothing removed" []
          (Journal.gc_stale ~dir:"/nonexistent/tabv-serve-state"
             ~max_age_s:1. ())) ]

(* --- request handling ------------------------------------------------- *)

let check_job ?(seed = 5) ?(ops = 15) () =
  Protocol.Check
    { model = Models.Des56_rtl; seed; ops; props = None; engine = None;
      trace_out = None }

(* The time one more operation of [check_job] takes on this host: the
   fastest of three runs at each of two sizes, differenced so the
   per-job setup cancels.  Measured once, on first use. *)
let seconds_per_op =
  lazy
    (let fastest ops =
       List.fold_left
         (fun best _ ->
           let t0 = Unix.gettimeofday () in
           (match Handler.execute ~state_dir:None (check_job ~seed:799 ~ops ()) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
           Float.min best (Unix.gettimeofday () -. t0))
         infinity [ 1; 2; 3 ]
     in
     (fastest 3_000 -. fastest 1_000) /. 2_000.)

(* Operations enough for [check_job] to keep a worker busy for at
   least [seconds], at whatever speed the simulator runs. *)
let ops_lasting seconds =
  int_of_float (Float.ceil (seconds /. Lazy.force seconds_per_op))

let handler_cases =
  [ case "fingerprints are stable and discriminating" (fun () ->
        Alcotest.(check string) "same job, same fingerprint"
          (Handler.fingerprint (check_job ()))
          (Handler.fingerprint (check_job ()));
        Alcotest.(check bool) "seed changes the fingerprint" true
          (Handler.fingerprint (check_job ())
           <> Handler.fingerprint (check_job ~seed:6 ())));
    case "cacheability: pure requests only" (fun () ->
        Alcotest.(check bool) "check is cacheable" true
          (Handler.cacheable (check_job ()));
        Alcotest.(check bool) "record is not (writes a trace)" false
          (Handler.cacheable
             (Protocol.Check
                { model = Models.Des56_rtl; seed = 1; ops = 5; props = None;
                  engine = None; trace_out = Some "/tmp/t.trace" }));
        Alcotest.(check bool) "recheck is not (reads external bytes)" false
          (Handler.cacheable
             (Protocol.Recheck
                { trace = "/tmp/t.trace"; props = None; workers = 1;
                  retries = 1 }));
        Alcotest.(check bool) "journaled campaign is not" false
          (Handler.cacheable
             (Protocol.Campaign
                { manifest = J.Assoc [ ("jobs", J.List []) ]; workers = 1;
                  retries = None; journal = true })));
    (* The trace is closed after the run, not in a [finally]: an fsync
       that fails there is the request's storage failure, not a
       [Fun.Finally_raised] escaping the handler. *)
    case "an EIO on the trace fsync is an honest storage failure" (fun () ->
        let module Io_fault = Tabv_fault.Fault.Io in
        let trace = Filename.temp_file "tabv_handler" ".trace" in
        Io_fault.install
          (Io_fault.arm
             (Io_fault.plan ~name:"trace-fsync-eio" ~scope:".trace"
                [ Io_fault.Fsync_eio { op = 0 } ]));
        let outcome =
          Fun.protect
            ~finally:(fun () ->
              Io_fault.uninstall ();
              try Sys.remove trace with Sys_error _ -> ())
            (fun () ->
              Handler.execute ~state_dir:None
                (Protocol.Check
                   { model = Models.Des56_rtl; seed = 1; ops = 5; props = None;
                     engine = None; trace_out = Some trace }))
        in
        match outcome with
        | Error message ->
          Alcotest.(check string) "names the operation and the path"
            (Printf.sprintf
               "storage failure: fsync on %s: %s (journaled work is \
                preserved; fix the disk and resubmit)"
               trace (Unix.error_message Unix.EIO))
            message
        | Ok _ -> Alcotest.fail "a failed trace fsync must fail the request") ]

(* --- the daemon end to end -------------------------------------------- *)

(* The expected one-shot report for [check_job]: fresh universe, same
   model run, same rendering — computed in this process. *)
let expected_check_report () =
  Tabv_checker.Progression.reset_universe ();
  let properties, grid_properties =
    Models.properties_for Models.Des56_rtl None
  in
  let result =
    Models.run
      { Tabv_duv.Testbench.default with properties; grid_properties }
      Models.Des56_rtl ~seed:5 ~ops:15
  in
  J.to_string (Models.verdict_report Models.Des56_rtl ~seed:5 ~ops:15 result)
  ^ "\n"

(* Boot a daemon on a fresh temp socket, run [f client socket], always
   drain and join the server. *)
let with_server ?(configure = fun c -> c) f =
  let dir = Filename.temp_file "tabv_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove socket with Sys_error _ -> ());
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () ->
      Server.with_daemon (configure (Server.default_config ~socket ()))
        (fun () ->
          let client =
            match Client.connect (`Unix socket) with
            | Ok c -> c
            | Error e -> Alcotest.fail e
          in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () -> f client socket)))

let report_of = function
  | Client.Result { report; _ } -> report
  | Client.Rejected _ -> Alcotest.fail "unexpected backpressure rejection"
  | Client.Failed msg -> Alcotest.fail msg

(* The value of the [serve.*] metric [name] in the daemon's stats
   reply, or -1 when it is missing. *)
let metric client name =
  match Client.control client Protocol.Stats with
  | Client.Stats json ->
    (match J.member "metrics" json with
     | Some metrics ->
       (match J.member name metrics with
        | Some m ->
          (match J.member "value" m with Some (J.Int n) -> n | _ -> -1)
        | None -> -1)
     | None -> -1)
  | _ -> Alcotest.fail "expected stats"

(* A one-job campaign whose first attempt aborts its process. *)
let abort_manifest =
  J.Assoc
    [ ( "jobs",
        J.List
          [ J.Assoc
              [ ("duv", J.String "des56"); ("level", J.String "rtl");
                ("seed", J.Int 1); ("ops", J.Int 5); ("chaos", J.Int 1);
                ("chaos_kind", J.String "abort") ] ] ) ]

(* The daemon cases below run on both executors: on in-domain workers
   in their place in the suite, and on subprocess workers at its end. *)

let warm_replay executor () =
  let expected = expected_check_report () in
  with_server
    ~configure:(fun c -> { c with Server.executor })
    (fun client _socket ->
      (match Client.request client (check_job ()) with
       | Client.Result { ok = true; warm = false; report } ->
         Alcotest.(check string) "cold run matches the one-shot path"
           expected report
       | _ -> Alcotest.fail "expected a cold ok result");
      match Client.request client (check_job ()) with
      | Client.Result { ok = true; warm = true; report } ->
        Alcotest.(check string) "warm replay is the same bytes" expected
          report
      | _ -> Alcotest.fail "expected a warm ok result")

(* A breaker that trips on one failure shows that a cancellation is not
   counted as one: an in-domain job returns, a killed worker process is
   the client's doing. *)
let disconnect_cancels executor () =
  with_server
    ~configure:(fun c ->
      { c with Server.workers = 1; executor; breaker_threshold = 1 })
    (fun client socket ->
      (* A second client fires a request and vanishes once it
         runs; its work must be discarded and the worker must
         come back to serve the surviving client.  Leaving only
         after [Started] keeps the doomed job ahead of the
         surviving one on the single worker, so its cancellation
         is counted before the surviving result is sent. *)
      (match Client.connect (`Unix socket) with
       | Error e -> Alcotest.fail e
       | Ok doomed ->
         Client.send_request doomed ~id:0
           (Protocol.Job (check_job ~seed:200 ~ops:400 ()));
         let rec wait_started () =
           match Client.next_event doomed with
           | Ok (0, Protocol.Started) -> ()
           | Ok (0, Protocol.Accepted _) -> wait_started ()
           | Ok _ -> Alcotest.fail "unexpected event for the doomed job"
           | Error e -> Alcotest.fail e
         in
         wait_started ();
         Client.close doomed);
      (match Client.request client (check_job ()) with
       | Client.Result { ok = true; _ } -> ()
       | _ -> Alcotest.fail "worker never came back");
      Alcotest.(check int) "the abandoned request was cancelled" 1
        (metric client "serve.requests_cancelled");
      Alcotest.(check int) "its reservations were released" 0
        (metric client "serve.inflight_keys");
      Alcotest.(check int) "the cancellation tripped no breaker" 0
        (metric client "serve.breaker_trips"))

let shutdown_drains executor () =
  with_server
    ~configure:(fun c -> { c with Server.executor })
    (fun client _socket ->
      (* Pipeline a job, then shutdown on the same connection:
         the job was accepted, so its result must still arrive. *)
      Client.send_request client ~id:0
        (Protocol.Job (check_job ~seed:300 ~ops:100 ()));
      Client.send_request client ~id:1 (Protocol.Control Protocol.Shutdown);
      let got_result = ref false
      and got_drain = ref false in
      let rec pump () =
        if not (!got_result && !got_drain) then
          match Client.next_event client with
          | Error e -> Alcotest.fail e
          | Ok (0, Protocol.Result { ok = true; _ }) ->
            got_result := true;
            pump ()
          | Ok (1, Protocol.Shutting_down) ->
            got_drain := true;
            pump ()
          | Ok (_, _) -> pump ()
      in
      pump ())

(* A worker process killed over a deadline counts against its slot's
   breaker (here it trips it, and the zero cooldown admits the next
   job at once); an in-domain job that overruns is only asked to stop,
   and its domain comes back sound. *)
let deadline_fires executor () =
  let ops = ops_lasting 0.6 in
  with_server
    ~configure:(fun c ->
      { c with Server.workers = 1; executor; job_timeout_s = Some 0.2;
        breaker_threshold = 1; breaker_cooldown_s = 0. })
    (fun client _socket ->
      (* Three times the 0.2s deadline of real work: the client
         must get an error event naming the deadline, and the
         worker slot must come back for the next request. *)
      (match
         Client.request client (check_job ~seed:700 ~ops ())
       with
       | Client.Failed msg ->
         Alcotest.(check bool)
           (Printf.sprintf "echoes the deadline: %s" msg)
           true
           (contains msg "deadline exceeded"
            && contains msg "--job-timeout")
       | Client.Result _ -> Alcotest.fail "the deadline never fired"
       | Client.Rejected _ -> Alcotest.fail "unexpected rejection");
      (match Client.request client (check_job ()) with
       | Client.Result { ok = true; _ } -> ()
       | _ -> Alcotest.fail "worker never came back after the deadline");
      Alcotest.(check int) "breaker trips"
        (match executor with
         | Server.Subprocess_workers -> 1
         | Server.In_domain_workers -> 0)
        (metric client "serve.breaker_trips"))

let leaks_no_descriptor executor () =
  let before = Helpers.open_fds () in
  with_server
    ~configure:(fun c -> { c with Server.executor })
    (fun client _socket -> ignore (report_of (Client.request client (check_job ()))));
  Alcotest.(check (option int)) "descriptors once the daemon has drained" before
    (Helpers.open_fds ())

let serve_cases =
  [ slow_case "a served check of no operations is refused before its trace opens"
      (fun () ->
        with_server (fun client socket ->
            let trace = Filename.concat (Filename.dirname socket) "ops.trace" in
            match
              Client.request client
                (Protocol.Check
                   { model = Models.Des56_rtl; seed = 1; ops = -3; props = None;
                     engine = None; trace_out = Some trace })
            with
            | Client.Failed message ->
              Alcotest.(check string) "names the value"
                "ops must be positive (got -3)" message;
              Alcotest.(check bool) "no trace file" false (Sys.file_exists trace)
            | _ -> Alcotest.fail "ops = -3 must be refused"));
    slow_case "a served check naming the removed engine option is refused"
      (fun () ->
        let expected = expected_check_report () in
        with_server (fun client _socket ->
            let with_engine =
              match Protocol.request_json ~id:0 (Protocol.Job (check_job ())) with
              | J.Assoc fields -> J.Assoc (fields @ [ ("engine", J.String "classic") ])
              | _ -> Alcotest.fail "a request is a JSON object"
            in
            Client.send client (J.to_string with_engine);
            (match Client.next_event client with
             | Ok (_, Protocol.Error { message }) ->
               Alcotest.(check bool)
                 (Printf.sprintf "names check.engine: %s" message)
                 true
                 (contains message "check.engine")
             | Ok _ -> Alcotest.fail "a check carrying engine must be refused"
             | Error e -> Alcotest.fail e);
            Alcotest.(check string) "the same request without the field runs"
              expected
              (report_of (Client.request client (check_job ())))));
    slow_case "a daemon that cannot bind raises before running its body"
      (fun () ->
        with_server (fun _client socket ->
            let ran = ref false in
            (match
               Server.with_daemon (Server.default_config ~socket ()) (fun () ->
                   ran := true)
             with
             | () -> Alcotest.fail "a second daemon started on a held socket"
             | exception Failure _ -> ());
            Alcotest.(check bool) "body never ran" false !ran));
    slow_case "warm replay is byte-identical to the cold run"
      (warm_replay Server.In_domain_workers);
    slow_case "invalidate drops the warm cache" (fun () ->
        with_server (fun client _socket ->
            ignore (report_of (Client.request client (check_job ())));
            (match Client.control client Protocol.Invalidate with
             | Client.Invalidated 1 -> ()
             | Client.Invalidated n ->
               Alcotest.failf "expected 1 entry invalidated, got %d" n
             | _ -> Alcotest.fail "expected an invalidated reply");
            match Client.request client (check_job ()) with
            | Client.Result { warm; _ } ->
              Alcotest.(check bool) "cold again after invalidate" false warm
            | _ -> Alcotest.fail "expected a result"));
    slow_case "queue-full rejection carries the retry advice" (fun () ->
        with_server
          ~configure:(fun c ->
            { c with Server.workers = 1; queue_bound = 1;
              retry_after_ms = 123 })
          (fun client _socket ->
            (* Three pipelined jobs on one worker with a queue of one:
               the first occupies the worker, the second fills the
               queue, the third must bounce with the configured base
               advice scaled by the actual backlog — the queue is at
               its bound, so the 123ms base is stretched 5x to 615ms.
               Distinct seeds keep the warm cache out of the admission
               path. *)
            Client.send_request client ~id:0
              (Protocol.Job (check_job ~seed:100 ~ops:400 ()));
            Client.send_request client ~id:1
              (Protocol.Job (check_job ~seed:101 ~ops:400 ()));
            Client.send_request client ~id:2
              (Protocol.Job (check_job ~seed:102 ~ops:400 ()));
            let rejected = ref None
            and results = ref 0 in
            let rec pump () =
              if !results < 2 || !rejected = None then
                match Client.next_event client with
                | Error e -> Alcotest.fail e
                | Ok (id, Protocol.Rejected { retry_after_ms }) ->
                  rejected := Some (id, retry_after_ms);
                  pump ()
                | Ok (_, Protocol.Result _) ->
                  incr results;
                  pump ()
                | Ok (_, _) -> pump ()
            in
            pump ();
            match !rejected with
            | Some (2, 615) -> ()
            | Some (id, ms) ->
              Alcotest.failf
                "expected request 2 rejected with 615ms advice, got %d/%dms"
                id ms
            | None -> Alcotest.fail "no rejection observed"));
    slow_case "clashing journaled campaigns are refused while queued" (fun () ->
        let journaled_campaign () =
          Protocol.Campaign
            {
              manifest =
                J.Assoc
                  [ ( "jobs",
                      J.List
                        [ J.Assoc
                            [ ("duv", J.String "des56");
                              ("level", J.String "rtl");
                              ("seed", J.Int 1);
                              ("ops", J.Int 10) ] ] ) ];
              workers = 1;
              retries = None;
              journal = true;
            }
        in
        with_server
          ~configure:(fun c ->
            { c with Server.workers = 1;
              state_dir = Some (Filename.dirname c.Server.socket) })
          (fun client _socket ->
            (* One worker, held by a slow check: both campaigns sit in
               the queue, where neither is running yet — admission must
               still refuse the second, or two writers would share one
               journal file once the worker frees up. *)
            Client.send_request client ~id:0
              (Protocol.Job (check_job ~seed:400 ~ops:400 ()));
            Client.send_request client ~id:1
              (Protocol.Job (journaled_campaign ()));
            Client.send_request client ~id:2
              (Protocol.Job (journaled_campaign ()));
            let rejected = ref None
            and campaign_done = ref false in
            let rec pump () =
              if !rejected = None || not !campaign_done then
                match Client.next_event client with
                | Error e -> Alcotest.fail e
                | Ok (id, Protocol.Rejected _) ->
                  rejected := Some id;
                  pump ()
                | Ok (2, Protocol.Result _) ->
                  Alcotest.fail "clashing campaign was executed"
                | Ok (1, Protocol.Result { ok; _ }) ->
                  Alcotest.(check bool) "surviving campaign is green" true ok;
                  campaign_done := true;
                  pump ()
                | Ok (_, _) -> pump ()
            in
            pump ();
            Alcotest.(check (option int)) "the queued clash bounced" (Some 2)
              !rejected));
    slow_case "a live request id cannot be reused" (fun () ->
        with_server
          ~configure:(fun c -> { c with Server.workers = 1 })
          (fun client _socket ->
            (* Same id pipelined while the first is still in flight:
               the second must bounce with a protocol error (the
               bookkeeping is keyed on (conn, id)), and the first must
               be unaffected.  Distinct seeds keep the warm cache out
               of the admission path. *)
            Client.send_request client ~id:0
              (Protocol.Job (check_job ~seed:500 ~ops:400 ()));
            Client.send_request client ~id:0
              (Protocol.Job (check_job ~seed:501 ~ops:400 ()));
            let dup_error = ref false
            and finished = ref false in
            let rec pump () =
              if not (!dup_error && !finished) then
                match Client.next_event client with
                | Error e -> Alcotest.fail e
                | Ok (0, Protocol.Error { message }) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "names the collision: %s" message)
                    true
                    (contains message "already queued or running");
                  dup_error := true;
                  pump ()
                | Ok (0, Protocol.Result { ok; _ }) ->
                  Alcotest.(check bool) "first request unaffected" true ok;
                  finished := true;
                  pump ()
                | Ok (_, _) -> pump ()
            in
            pump ()));
    slow_case "a second daemon cannot steal a live socket" (fun () ->
        with_server (fun client socket ->
            (* The socket file exists and a daemon is listening: a
               second serve on the same path must refuse to unlink it
               (it would leave the first daemon running but
               unreachable), and the first must stay reachable. *)
            (match Server.run (Server.default_config ~socket ()) with
             | _ -> Alcotest.fail "second daemon must refuse a live socket"
             | exception Failure msg ->
               Alcotest.(check bool)
                 (Printf.sprintf "names the path: %s" msg)
                 true (contains msg socket));
            match Client.control client Protocol.Ping with
            | Client.Pong -> ()
            | _ -> Alcotest.fail "original daemon no longer answers"));
    slow_case "disconnect mid-request cancels and frees the worker"
      (disconnect_cancels Server.In_domain_workers);
    slow_case "shutdown drains accepted work before exiting"
      (shutdown_drains Server.In_domain_workers);
    slow_case "an overrunning job is deadlined with an honest error"
      (deadline_fires Server.In_domain_workers);
    slow_case "a client silent mid-frame is timed out and releases its reservations"
      (fun () ->
        let parked_ops = ops_lasting 1.2 in
        let journaled_campaign () =
          Protocol.Campaign
            {
              manifest =
                J.Assoc
                  [ ( "jobs",
                      J.List
                        [ J.Assoc
                            [ ("duv", J.String "des56");
                              ("level", J.String "rtl");
                              ("seed", J.Int 2);
                              ("ops", J.Int 10) ] ] ) ];
              workers = 1;
              retries = None;
              journal = true;
            }
        in
        with_server
          ~configure:(fun c ->
            { c with Server.workers = 1; conn_idle_timeout_s = 0.4;
              state_dir = Some (Filename.dirname c.Server.socket) })
          (fun client socket ->
            (* The main client parks a job on the only worker, sized
               to outlast the idle timeout three times over.
               A second client then queues a journaled campaign (its
               journal path is now reserved), starts another request
               and goes silent halfway through the frame — a
               half-alive peer, not a disconnect.  The server must
               time the connection out while the worker is still busy
               and release the queued campaign's reservation, or the
               main client's identical campaign below would be refused
               as a journal clash forever. *)
            Client.send_request client ~id:0
              (Protocol.Job (check_job ~seed:800 ~ops:parked_ops ()));
            let doomed =
              match Client.connect (`Unix socket) with
              | Ok c -> c
              | Error e -> Alcotest.fail e
            in
            Client.send_request doomed ~id:0
              (Protocol.Job (journaled_campaign ()));
            Client.interpose doomed (fun frame ->
                [ `Chunk (String.sub frame 0 (String.length frame - 5)) ]);
            Client.send_request doomed ~id:1
              (Protocol.Job (check_job ~seed:801 ()));
            (* Wait out the parked job; the doomed connection times
               out (0.4s) well before the worker frees (1.2s or more). *)
            let rec wait_parked () =
              match Client.next_event client with
              | Ok (0, Protocol.Result { ok = true; _ }) -> ()
              | Ok (_, (Protocol.Accepted _ | Protocol.Started)) ->
                wait_parked ()
              | Ok _ -> Alcotest.fail "unexpected event for the parked job"
              | Error e -> Alcotest.fail e
            in
            wait_parked ();
            Alcotest.(check int)
              "the silent connection timed out while the parked job held \
               the worker"
              1
              (metric client "serve.connections_timed_out");
            (match Client.request client (journaled_campaign ()) with
             | Client.Result { ok = true; _ } -> ()
             | Client.Result _ -> Alcotest.fail "campaign went red"
             | Client.Rejected _ ->
               Alcotest.fail "the dead client's journal reservation leaked"
             | Client.Failed msg -> Alcotest.fail msg);
            Alcotest.(check int) "exactly the silent connection timed out" 1
              (metric client "serve.connections_timed_out");
            Client.close doomed));
    (* A subprocess worker killed by a signal is reported in the
       campaign executor's wording, with the POSIX signal number (6 for
       SIGABRT), not OCaml's internal encoding of it. *)
    (* On a breaker that trips on one failure: a dead worker counts as
       one, a clean [{"error":..}] reply (the case after) does not. *)
    slow_case "a served worker killed by SIGABRT reports signal 6" (fun () ->
        with_server
          ~configure:(fun c ->
            { c with Server.workers = 1; executor = Server.Subprocess_workers;
              breaker_threshold = 1 })
          (fun client _socket ->
            (match
               Client.request client
                 (Protocol.Campaign
                    { manifest = abort_manifest; workers = 1; retries = None;
                      journal = false })
             with
             | Client.Failed message ->
               Alcotest.(check string) "the executor's wording"
                 "killed by signal 6" message
             | _ -> Alcotest.fail "an aborted worker must fail the request");
            Alcotest.(check int) "the dead worker tripped its breaker" 1
              (metric client "serve.breaker_trips")));
    slow_case "a subprocess worker's refusal reads as an in-domain one"
      (fun () ->
        with_server
          ~configure:(fun c ->
            { c with Server.workers = 1; executor = Server.Subprocess_workers;
              breaker_threshold = 1 })
          (fun client _socket ->
            (match Client.request client (check_job ~ops:0 ()) with
             | Client.Failed message ->
               Alcotest.(check string) "the admission's own text"
                 "ops must be positive (got 0)" message
             | _ -> Alcotest.fail "ops = 0 must be refused");
            Alcotest.(check int) "a clean refusal trips no breaker" 0
              (metric client "serve.breaker_trips")));
    (* Every chunk of a pooled recheck reads the whole trace, so damage
       is refused as damage, in the words of a one-chunk recheck. *)
    slow_case "a served recheck on two workers refuses a damaged trace alike"
      (fun () ->
        with_server (fun client socket ->
            let trace = Filename.concat (Filename.dirname socket) "cut.trace" in
            ignore
              (report_of
                 (Client.request client
                    (Protocol.Check
                       { model = Models.Des56_rtl; seed = 42; ops = 20;
                         props = None; engine = None; trace_out = Some trace })));
            Unix.truncate trace 300;
            let refusal workers =
              match
                Client.request client
                  (Protocol.Recheck { trace; props = None; workers; retries = 0 })
              with
              | Client.Failed message -> message
              | _ -> Alcotest.failf "rechecked a damaged trace on %d worker(s)" workers
            in
            let one = refusal 1 in
            Alcotest.(check bool)
              (Printf.sprintf "one worker names the damage: %s" one)
              true
              (contains one "truncated (unexpected end of file)");
            Alcotest.(check string) "two workers refuse it alike" one (refusal 2)));
    slow_case "an in-domain daemon refuses a campaign arming hard chaos"
      (fun () ->
        let expected = expected_check_report () in
        with_server (fun client _socket ->
            (match
               Client.request client
                 (Protocol.Campaign
                    { manifest = abort_manifest; workers = 1; retries = None;
                      journal = false })
             with
             | Client.Failed message ->
               Alcotest.(check string) "names the kind and --isolate"
                 "chaos_kind \"abort\" would end this daemon's own process: \
                  only a daemon started with --isolate runs it"
                 message
             | _ -> Alcotest.fail "an armed abort must be refused");
            Alcotest.(check string) "the daemon still serves" expected
              (report_of (Client.request client (check_job ())));
            Alcotest.(check int) "no reservation left" 0
              (metric client "serve.inflight_keys")));
    slow_case "warm replay is byte-identical to the cold run, on subprocess workers"
      (warm_replay Server.Subprocess_workers);
    slow_case "disconnect mid-request cancels and frees the worker, on subprocess workers"
      (disconnect_cancels Server.Subprocess_workers);
    slow_case "shutdown drains accepted work before exiting, on subprocess workers"
      (shutdown_drains Server.Subprocess_workers);
    slow_case "an overrunning job is deadlined with an honest error, on subprocess workers"
      (deadline_fires Server.Subprocess_workers);
    slow_case "an in-domain daemon leaks no descriptor"
      (leaks_no_descriptor Server.In_domain_workers);
    slow_case "a subprocess daemon leaks no descriptor"
      (leaks_no_descriptor Server.Subprocess_workers) ]

(* Requests carry outside input (any socket client builds them), so
   the handler admits a worker count and a trace path as the one-shot
   admits its flags. *)
let admission_cases =
  [ case "a served pool of no workers is refused like -j 0" (fun () ->
        let manifest =
          J.Assoc
            [ ( "jobs",
                J.List
                  [ J.Assoc
                      [ ("duv", J.String "des56"); ("level", J.String "rtl");
                        ("seed", J.Int 1); ("ops", J.Int 5) ] ] ) ]
        in
        List.iter
          (fun (name, job) ->
            match Handler.execute ~state_dir:None job with
            | Error message ->
              Alcotest.(check string) name "--workers must be >= 1 (got 0)"
                message
            | Ok _ -> Alcotest.fail (name ^ " ran on no workers"))
          [ ( "campaign",
              Protocol.Campaign
                { manifest; workers = 0; retries = None; journal = false } );
            ( "qualify",
              Protocol.Qualify
                { duv = Models.Des56; levels = [ Models.Rtl ]; seed = 1; ops = 5;
                  workers = 0; retries = 1 } ) ]);
    case "a missing trace is refused naming it" (fun () ->
        let trace = "/nonexistent/tabv_handler.trace" in
        match
          Handler.execute ~state_dir:None
            (Protocol.Recheck { trace; props = None; workers = 1; retries = 1 })
        with
        | Error message ->
          Alcotest.(check string) "names the path"
            (trace ^ ": No such file or directory") message
        | Ok _ -> Alcotest.fail "a missing trace must fail the request") ]

let suite =
  ( "serve",
    sched_cases @ breaker_cases @ warm_cases @ frame_cases @ frame_fuzz_cases
    @ journal_cases @ handler_cases @ serve_cases @ admission_cases )
