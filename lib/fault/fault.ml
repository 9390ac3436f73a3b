open Tabv_sim
module J = Tabv_core.Report_json

type signal_fault =
  | Stuck_at_0 of { from_ns : int }
  | Stuck_at_1 of { from_ns : int }
  | Bit_flip of { bit : int; at_ns : int }
  | Glitch of { bit : int; from_ns : int; duration_ns : int }

type tlm_fault =
  | Corrupt_field of { field : string; fault : signal_fault }
  | Hang of { index : int }

type hard_failure =
  | Abort
  | Alloc_storm
  | Busy_loop

type chaos =
  | Crash of { at_ns : int; name : string }
  | Livelock_loop of { at_ns : int }

type injection =
  | Signal_fault of { signal : string; fault : signal_fault }
  | Tlm_mutation of { socket : string; fault : tlm_fault }
  | Chaos of chaos

type plan = {
  plan_name : string;
  injections : injection list;
}

let plan ~name injections = { plan_name = name; injections }
let is_empty p = p.injections = []

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let signal_fault_json = function
  | Stuck_at_0 { from_ns } ->
    J.Assoc [ ("kind", J.String "stuck_at_0"); ("from_ns", J.Int from_ns) ]
  | Stuck_at_1 { from_ns } ->
    J.Assoc [ ("kind", J.String "stuck_at_1"); ("from_ns", J.Int from_ns) ]
  | Bit_flip { bit; at_ns } ->
    J.Assoc [ ("kind", J.String "bit_flip"); ("bit", J.Int bit); ("at_ns", J.Int at_ns) ]
  | Glitch { bit; from_ns; duration_ns } ->
    J.Assoc
      [ ("kind", J.String "glitch");
        ("bit", J.Int bit);
        ("from_ns", J.Int from_ns);
        ("duration_ns", J.Int duration_ns)
      ]

let tlm_fault_json = function
  | Corrupt_field { field; fault } ->
    J.Assoc
      [ ("kind", J.String "corrupt_field");
        ("field", J.String field);
        ("fault", signal_fault_json fault)
      ]
  | Hang { index } -> J.Assoc [ ("kind", J.String "hang"); ("index", J.Int index) ]

let hard_failure_name = function
  | Abort -> "abort"
  | Alloc_storm -> "alloc_storm"
  | Busy_loop -> "busy_loop"

let hard_failure_of_name = function
  | "abort" -> Some Abort
  | "alloc_storm" -> Some Alloc_storm
  | "busy_loop" -> Some Busy_loop
  | _ -> None

let chaos_json = function
  | Crash { at_ns; name } ->
    J.Assoc
      [ ("kind", J.String "crash"); ("at_ns", J.Int at_ns); ("name", J.String name) ]
  | Livelock_loop { at_ns } ->
    J.Assoc [ ("kind", J.String "livelock"); ("at_ns", J.Int at_ns) ]

let injection_json = function
  | Signal_fault { signal; fault } ->
    J.Assoc
      [ ("kind", J.String "signal");
        ("signal", J.String signal);
        ("fault", signal_fault_json fault)
      ]
  | Tlm_mutation { socket; fault } ->
    J.Assoc
      [ ("kind", J.String "tlm");
        ("socket", J.String socket);
        ("fault", tlm_fault_json fault)
      ]
  | Chaos c -> J.Assoc [ ("kind", J.String "chaos"); ("fault", chaos_json c) ]

let plan_json p =
  J.Assoc
    [ ("plan", J.String p.plan_name);
      ("injections", J.List (List.map injection_json p.injections))
    ]

let diagnosis_json (d : Kernel.diagnosis) =
  match d with
  | Kernel.Completed -> J.Assoc [ ("kind", J.String "completed") ]
  | Kernel.Starved { waiting } ->
    J.Assoc [ ("kind", J.String "starved"); ("waiting", J.Int waiting) ]
  | Kernel.Livelock { time; delta_cycles } ->
    J.Assoc
      [ ("kind", J.String "livelock");
        ("time", J.Int time);
        ("delta_cycles", J.Int delta_cycles)
      ]
  | Kernel.Budget_exhausted { steps } ->
    J.Assoc [ ("kind", J.String "budget_exhausted"); ("steps", J.Int steps) ]
  | Kernel.Process_crashed { name; error } ->
    J.Assoc
      [ ("kind", J.String "process_crashed");
        ("process", J.String name);
        ("error", J.String error)
      ]

let ( let* ) = Result.bind

let diagnosis_of_json json =
  let what = "diagnosis" in
  let* fields = J.open_assoc what json in
  let* kind = J.string_field what "kind" fields in
  match kind with
  | "completed" -> Ok Kernel.Completed
  | "starved" ->
    let* waiting = J.int_field what "waiting" fields in
    Ok (Kernel.Starved { waiting })
  | "livelock" ->
    let* time = J.int_field what "time" fields in
    let* delta_cycles = J.int_field what "delta_cycles" fields in
    Ok (Kernel.Livelock { time; delta_cycles })
  | "budget_exhausted" ->
    let* steps = J.int_field what "steps" fields in
    Ok (Kernel.Budget_exhausted { steps })
  | "process_crashed" ->
    let* name = J.string_field what "process" fields in
    let* error = J.string_field what "error" fields in
    Ok (Kernel.Process_crashed { name; error })
  | other -> Error (Printf.sprintf "%s: unknown kind %S" what other)

(* ------------------------------------------------------------------ *)
(* Binding and installation                                            *)
(* ------------------------------------------------------------------ *)

type target =
  | Bool_signal of bool Signal.t
  | Int_signal of { signal : int Signal.t; width : int }
  | Int64_signal of { signal : int64 Signal.t; width : int }

type lens = {
  get : unit -> int64;
  set : int64 -> unit;
  width : int;
}

type socket_binding = {
  initiator : Tlm.Initiator.t;
  fields : (string * lens) list;
}

type binding = {
  kernel : Kernel.t;
  signals : (string * target) list;
  sockets : (string * socket_binding) list;
}

type installed = {
  mutable triggered_count : int;
  armed_count : int;
}

let triggered inst = inst.triggered_count
let trigger inst = inst.triggered_count <- inst.triggered_count + 1
let ones width = if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L
let mask width v = Int64.logand v (ones width)

(* One saboteur application over the int64 bits view.  Triggering is
   counted only when the fault actually alters the value: an armed
   stuck-at on a signal already at that value is latent, which is the
   honest qualification verdict. *)
let apply_signal_fault inst ~now ~width bits fault =
  match fault with
  | Stuck_at_0 { from_ns } ->
    if now >= from_ns then begin
      if bits <> 0L then trigger inst;
      0L
    end
    else bits
  | Stuck_at_1 { from_ns } ->
    if now >= from_ns then begin
      let v = ones width in
      if bits <> v then trigger inst;
      v
    end
    else bits
  | Bit_flip { bit; at_ns } ->
    if now = at_ns && bit < width then begin
      trigger inst;
      mask width (Int64.logxor bits (Int64.shift_left 1L bit))
    end
    else bits
  | Glitch { bit; from_ns; duration_ns } ->
    if now >= from_ns && now < from_ns + duration_ns && bit < width then begin
      trigger inst;
      mask width (Int64.logxor bits (Int64.shift_left 1L bit))
    end
    else bits

(* Instants at which a fault arms or disarms: the saboteur needs an
   update-phase application there even if the design writes nothing,
   so each boundary schedules a {!Signal.refresh}. *)
let boundaries = function
  | Stuck_at_0 { from_ns } | Stuck_at_1 { from_ns } -> [ from_ns ]
  | Bit_flip { at_ns; _ } -> [ at_ns; at_ns + 1 ]
  | Glitch { from_ns; duration_ns; _ } -> [ from_ns; from_ns + duration_ns ]

let install_signal kernel inst target faults =
  let transform_bits width bits =
    let now = Kernel.now kernel in
    List.fold_left (fun b f -> apply_signal_fault inst ~now ~width b f) bits faults
  in
  let refresh =
    match target with
    | Bool_signal s ->
      Signal.interpose s (fun v ->
        Int64.logand (transform_bits 1 (if v then 1L else 0L)) 1L <> 0L);
      fun () -> Signal.refresh s
    | Int_signal { signal; width } ->
      Signal.interpose signal (fun v -> Int64.to_int (transform_bits width (Int64.of_int v)));
      fun () -> Signal.refresh signal
    | Int64_signal { signal; width } ->
      Signal.interpose signal (fun v -> transform_bits width v);
      fun () -> Signal.refresh signal
  in
  List.iter
    (fun fault ->
      List.iter
        (fun time -> if time >= Kernel.now kernel then Kernel.schedule_at kernel ~time refresh)
        (boundaries fault))
    faults

let install_socket kernel inst sb faults =
  List.iter
    (function
      | Corrupt_field { field; _ } when not (List.mem_assoc field sb.fields) ->
        invalid_arg
          (Printf.sprintf "Fault.install: unknown field %S on socket %s" field
             (Tlm.Initiator.name sb.initiator))
      | _ -> ())
    faults;
  let count = ref 0 in
  Tlm.Initiator.interpose sb.initiator (fun transport payload ->
    let i = !count in
    incr count;
    List.iter
      (function
        | Hang { index } when index = i ->
          trigger inst;
          (* An event nobody ever notifies: the initiator thread
             blocks forever and the run ends [Starved]. *)
          Process.wait_event (Event.create kernel "fault.hang")
        | _ -> ())
      faults;
    transport payload;
    (* Post-transport corruption: visible to the abstracted property
       suite because the checker samples one delta later. *)
    List.iter
      (function
        | Corrupt_field { field; fault } ->
          let lens = List.assoc field sb.fields in
          let v = lens.get () in
          let v' = apply_signal_fault inst ~now:(Kernel.now kernel) ~width:lens.width v fault in
          if v' <> v then lens.set v'
        | Hang _ -> ())
      faults)

(* Hard failures: crash classes that in-process exception catching
   provably cannot contain.  They exist to validate the process-level
   isolation of the campaign subprocess executor (lib/campaign):

   - [Abort] raises SIGABRT in the current process — no OCaml handler
     runs, the OS terminates the process (containment = fork
     boundary);
   - [Alloc_storm] grows the live heap monotonically and never
     returns.  It is rate-limited (~64 MiB/s) so that in tests the
     executor's wall-clock watchdog, not the machine's OOM killer, is
     the expected containment;
   - [Busy_loop] spins inside one scheduled action without ever
     yielding to the kernel, so the delta-cycle and step-budget
     watchdogs never get a chance to trip — only an external
     wall-clock watchdog (SIGKILL) contains it. *)
let execute_hard_failure = function
  | Abort ->
    Unix.kill (Unix.getpid ()) Sys.sigabrt;
    (* Unreachable: SIGABRT's default disposition terminates. *)
    assert false
  | Alloc_storm ->
    let hoard = ref [] in
    let rec grow () =
      hoard := Bytes.create 65536 :: !hoard;
      Unix.sleepf 0.001;
      grow ()
    in
    grow ()
  | Busy_loop ->
    let x = ref 0 in
    let rec spin () =
      x := !x lxor 1;
      spin ()
    in
    spin ()

let install_chaos kernel inst = function
  | Crash { at_ns; name } ->
    Kernel.schedule_at kernel ~time:at_ns (fun () ->
      trigger inst;
      Kernel.set_label kernel name;
      failwith (Printf.sprintf "injected crash: %s" name))
  | Livelock_loop { at_ns } ->
    Kernel.schedule_at kernel ~time:at_ns (fun () ->
      trigger inst;
      let rec spin () = Kernel.schedule_next_delta kernel spin in
      spin ())

let install binding plan =
  let inst = { triggered_count = 0; armed_count = List.length plan.injections } in
  (* Group per signal / per socket (first-appearance order) so each
     carrier gets exactly one composite interposer. *)
  let by_signal = ref [] and by_socket = ref [] in
  let push groups name fault =
    match List.assoc_opt name !groups with
    | Some faults -> faults := fault :: !faults
    | None -> groups := !groups @ [ (name, ref [ fault ]) ]
  in
  List.iter
    (function
      | Signal_fault { signal; fault } ->
        if not (List.mem_assoc signal binding.signals) then
          invalid_arg (Printf.sprintf "Fault.install: unknown signal %S" signal);
        push by_signal signal fault
      | Tlm_mutation { socket; fault } ->
        if not (List.mem_assoc socket binding.sockets) then
          invalid_arg (Printf.sprintf "Fault.install: unknown socket %S" socket);
        push by_socket socket fault
      | Chaos c -> install_chaos binding.kernel inst c)
    plan.injections;
  List.iter
    (fun (name, faults) ->
      install_signal binding.kernel inst (List.assoc name binding.signals)
        (List.rev !faults))
    !by_signal;
  List.iter
    (fun (name, faults) ->
      install_socket binding.kernel inst (List.assoc name binding.sockets)
        (List.rev !faults))
    !by_socket;
  if plan.injections <> [] then begin
    let metrics = Kernel.metrics binding.kernel in
    Tabv_obs.Metrics.probe metrics "fault.armed" (fun () -> inst.armed_count);
    Tabv_obs.Metrics.probe metrics "fault.triggered" (fun () -> inst.triggered_count)
  end;
  inst

(* ------------------------------------------------------------------ *)
(* Wire/transport fault plans                                          *)
(* ------------------------------------------------------------------ *)

(* The same deterministic-saboteur philosophy one layer up: instead of
   corrupting DUV signals, corrupt the byte stream a serve client
   writes to the daemon.  A plan names {e which} outbound frame (0, 1,
   2, ... counted across the client's whole life, reconnects included)
   suffers {e what}; [arm]/[apply] turn one encoded frame into the
   wire actions a fault-aware sender executes.  Nothing here touches a
   socket — the client owns the fd and interprets the actions — so the
   vocabulary stays pure and testable without a daemon. *)
module Net = struct
  type fault =
    | Torn_frame of { frame : int; pieces : int }
        (* split one frame into [pieces] separate writes *)
    | Truncated_header of { frame : int; keep : int }
        (* write only the first [keep] header bytes, then reset *)
    | Corrupt_length of { frame : int; digit : int }
        (* rewrite hex digit [digit] of the length prefix *)
    | Corrupt_version of { frame : int }
        (* overwrite the version field with 0xff *)
    | Slow_loris of { frame : int; delay_ms : int }
        (* dribble the frame out in tiny delayed writes *)
    | Reset_mid_frame of { frame : int; after : int }
        (* write [after] bytes of the frame, then reset *)
    | Delay_frame of { frame : int; delay_ms : int }
        (* hold the whole frame back [delay_ms], then send intact *)
    | Duplicate_frame of { frame : int }
        (* send the frame twice back-to-back *)
    | Handshake_garbage of { bytes : int }
        (* [bytes] of non-protocol noise before the first frame *)

  type plan = {
    plan_name : string;
    faults : fault list;
  }

  let no_faults = { plan_name = "no-net-faults"; faults = [] }
  let plan ~name faults = { plan_name = name; faults }
  let fault_count p = List.length p.faults

  (* Seeded generation: identical [(seed, frames, count)] always
     yields the identical plan, and faults are drawn in index order. *)
  let generate ~seed ~frames ~count =
    let name = Printf.sprintf "net-generated-%d" seed in
    if frames < 1 || count < 1 then { plan_name = name; faults = [] }
    else begin
      let st = Random.State.make [| 0x7ab5; 0x0e7; seed |] in
      let pick () =
        let frame = Random.State.int st frames in
        match Random.State.int st 9 with
        | 0 -> Torn_frame { frame; pieces = 2 + Random.State.int st 6 }
        | 1 -> Truncated_header { frame; keep = 1 + Random.State.int st 9 }
        | 2 -> Corrupt_length { frame; digit = Random.State.int st 8 }
        | 3 -> Corrupt_version { frame }
        | 4 -> Slow_loris { frame; delay_ms = 1 + Random.State.int st 5 }
        | 5 -> Reset_mid_frame { frame; after = 1 + Random.State.int st 16 }
        | 6 -> Delay_frame { frame; delay_ms = 1 + Random.State.int st 20 }
        | 7 -> Duplicate_frame { frame }
        | _ -> Handshake_garbage { bytes = 1 + Random.State.int st 64 }
      in
      let rec draw acc n =
        if n = 0 then List.rev acc else draw (pick () :: acc) (n - 1)
      in
      { plan_name = name; faults = draw [] count }
    end

  (* --- arming and application --------------------------------------- *)

  (* What a fault-aware sender does with one frame, in order.  [`Reset]
     hard-closes the connection (and the sender treats the request as
     failed); anything after a [`Reset] is unreachable by
     construction. *)
  type action =
    [ `Chunk of string  (* write these bytes *)
    | `Delay_ms of int  (* sleep before the next action *)
    | `Reset  (* shut the socket down, both directions *)
    ]

  type armed = {
    armed_plan : plan;
    mutable next_frame : int;  (* frames seen so far, reconnect-proof *)
    mutable net_triggered : int;
  }

  let arm p = { armed_plan = p; next_frame = 0; net_triggered = 0 }
  let armed_faults a = fault_count a.armed_plan
  let net_triggered a = a.net_triggered
  let frames_sent a = a.next_frame

  (* Deterministic non-protocol noise.  The first byte is never a hex
     digit, so a reader fails on the very first header decode instead
     of wandering into ambiguity. *)
  let garbage_bytes n =
    String.init n (fun i ->
      let alphabet = "#garbage?noise!" in
      alphabet.[i mod String.length alphabet])

  let split_into ~pieces s =
    let len = String.length s in
    let pieces = max 1 (min pieces len) in
    let base = len / pieces and extra = len mod pieces in
    let rec go acc off i =
      if i = pieces then List.rev acc
      else begin
        let size = base + if i < extra then 1 else 0 in
        go (String.sub s off size :: acc) (off + size) (i + 1)
      end
    in
    go [] 0 0

  let rewrite s pos c =
    let b = Bytes.of_string s in
    Bytes.set b pos c;
    Bytes.to_string b

  let hex_digit v = "0123456789abcdef".[v land 0xf]

  let hex_value = function
    | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None

  (* Turn one encoded frame (versioned header assumed — the serve
     protocol always versions its sockets) into wire actions.  At most
     one fault fires per frame, the first in plan order; handshake
     garbage additionally precedes frame 0.  Every fault that fires
     counts as triggered. *)
  let apply a frame_bytes =
    let n = a.next_frame in
    a.next_frame <- n + 1;
    let len = String.length frame_bytes in
    let prelude =
      if n > 0 then []
      else
        List.concat_map
          (function
            | Handshake_garbage { bytes } when bytes > 0 ->
              a.net_triggered <- a.net_triggered + 1;
              [ `Chunk (garbage_bytes bytes) ]
            | _ -> [])
          a.armed_plan.faults
    in
    let targets_this_frame = function
      | Torn_frame { frame; _ }
      | Truncated_header { frame; _ }
      | Corrupt_length { frame; _ }
      | Corrupt_version { frame }
      | Slow_loris { frame; _ }
      | Reset_mid_frame { frame; _ }
      | Delay_frame { frame; _ }
      | Duplicate_frame { frame } -> frame = n
      | Handshake_garbage _ -> false
    in
    let actions =
      match List.find_opt targets_this_frame a.armed_plan.faults with
      | None -> [ `Chunk frame_bytes ]
      | Some fault ->
        a.net_triggered <- a.net_triggered + 1;
        (match fault with
         | Torn_frame { pieces; _ } ->
           List.map (fun p -> `Chunk p) (split_into ~pieces frame_bytes)
         | Truncated_header { keep; _ } ->
           let keep =
             max 1 (min keep (min (len - 1) (Tabv_core.Frame.versioned_header_length - 1)))
           in
           [ `Chunk (String.sub frame_bytes 0 keep); `Reset ]
         | Corrupt_length { digit; _ } when len >= Tabv_core.Frame.versioned_header_length ->
           (* Digits 0-7 of the 8-hex length field sit at header
              offsets 2-9; bump the digit's value so the announced
              length is provably wrong, then reset — the stream past a
              lied-about length is unrecoverable garbage either way. *)
           let digit = (abs digit) mod 8 in
           let pos = 2 + digit in
           let v =
             match hex_value frame_bytes.[pos] with
             | Some v -> v
             | None -> 0
           in
           [ `Chunk (rewrite frame_bytes pos (hex_digit ((v + 1 + digit) mod 16)));
             `Reset
           ]
         | Corrupt_length _ -> [ `Chunk frame_bytes ]
         | Corrupt_version _ when len >= Tabv_core.Frame.versioned_header_length ->
           [ `Chunk (rewrite (rewrite frame_bytes 0 'f') 1 'f'); `Reset ]
         | Corrupt_version _ -> [ `Chunk frame_bytes ]
         | Slow_loris { delay_ms; _ } ->
           (* Byte-ish dribble, capped at 32 writes so a huge frame
              cannot turn one fault into minutes of sleeping. *)
           List.concat_map
             (fun p -> [ `Delay_ms delay_ms; `Chunk p ])
             (split_into ~pieces:32 frame_bytes)
         | Reset_mid_frame { after; _ } ->
           let after = max 1 (min after (len - 1)) in
           [ `Chunk (String.sub frame_bytes 0 after); `Reset ]
         | Delay_frame { delay_ms; _ } ->
           [ `Delay_ms delay_ms; `Chunk frame_bytes ]
         | Duplicate_frame _ -> [ `Chunk frame_bytes; `Chunk frame_bytes ]
         | Handshake_garbage _ -> [ `Chunk frame_bytes ])
    in
    (prelude @ actions : action list)
end

(* --- filesystem fault plans --------------------------------------- *)

module Io = struct
  type fault =
    | Short_write of { op : int; keep : int }
        (* write op [op] keeps only [keep] bytes, then ENOSPC *)
    | Enospc_after of { bytes : int }
        (* cumulative in-scope writes past [bytes] hit ENOSPC *)
    | Write_eio of { op : int }  (* write op [op] fails with EIO *)
    | Fsync_eio of { op : int }  (* fsync op [op] fails with EIO *)
    | Fsync_lie of { op : int }
        (* fsync op [op] acks without syncing — durable prefix stalls *)
    | Power_cut of { op : int }
        (* everything from write op [op] on fails with EIO *)

  type plan = {
    plan_name : string;
    scope : string;
    faults : fault list;
  }

  let plan ~name ~scope faults = { plan_name = name; scope; faults }

  (* --- arming ------------------------------------------------------ *)

  type file_state = {
    mutable flushed : int;  (* offset after the last allowed write *)
    mutable durable : int;  (* offset at the last honest fsync *)
    mutable boundaries : int list;  (* post-write offsets, reversed *)
  }

  type armed = {
    armed_plan : plan;
    files : (string, file_state) Hashtbl.t;
    mutable writes : int;
    mutable fsyncs : int;
    mutable dead : bool;  (* a Power_cut fired *)
    mutable io_triggered : int;
    lock : Mutex.t;  (* the hook is consulted from worker domains *)
  }

  let arm p =
    {
      armed_plan = p;
      files = Hashtbl.create 8;
      writes = 0;
      fsyncs = 0;
      dead = false;
      io_triggered = 0;
      lock = Mutex.create ();
    }

  let io_triggered a = a.io_triggered

  let locked a f =
    Mutex.lock a.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

  (* A [.tmp] sibling of an in-scope path is in scope too, so
     temp+rename commits face the same faults as the final file. *)
  let in_scope a path =
    let scope = a.armed_plan.scope in
    scope = ""
    || Filename.check_suffix path scope
    || Tabv_core.Io.is_temp_path path
       && Filename.check_suffix
            (Filename.chop_suffix path Tabv_core.Io.temp_suffix)
            scope

  let file_state a path =
    match Hashtbl.find_opt a.files path with
    | Some st -> st
    | None ->
      let st = { flushed = 0; durable = 0; boundaries = [] } in
      Hashtbl.add a.files path st;
      st

  let write_boundaries a path =
    locked a (fun () ->
        match Hashtbl.find_opt a.files path with
        | None -> []
        | Some st -> List.rev st.boundaries)

  let durable_prefix a path =
    locked a (fun () ->
        match Hashtbl.find_opt a.files path with
        | None -> 0
        | Some st -> st.durable)

  let fired a = a.io_triggered <- a.io_triggered + 1

  (* At most one fault fires per operation — the first in plan order
     that targets it; [Enospc_after] and an armed [Power_cut] are
     standing conditions rather than indexed ops. *)
  let on_write a ~path ~offset ~len =
    if not (in_scope a path) then Tabv_core.Io.Write_through
    else
      locked a (fun () ->
          let st = file_state a path in
          (* A reopened file (append after resume) starts past the
             recorded offsets: adopt the caller's offset. *)
          if offset > st.flushed then st.flushed <- offset;
          let n = a.writes in
          a.writes <- n + 1;
          if a.dead then Tabv_core.Io.Write_error Unix.EIO
          else begin
            let allow () =
              st.flushed <- offset + len;
              st.boundaries <- st.flushed :: st.boundaries;
              Tabv_core.Io.Write_through
            in
            let decide = function
              | Short_write { op; keep } when op = n ->
                fired a;
                let keep = max 0 (min keep len) in
                st.flushed <- offset + keep;
                Some (Tabv_core.Io.Write_short { bytes = keep; error = Unix.ENOSPC })
              | Write_eio { op } when op = n ->
                fired a;
                Some (Tabv_core.Io.Write_error Unix.EIO)
              | Power_cut { op } when op <= n ->
                fired a;
                a.dead <- true;
                Some (Tabv_core.Io.Write_error Unix.EIO)
              | Enospc_after { bytes } when offset + len > bytes ->
                fired a;
                if offset >= bytes then
                  Some (Tabv_core.Io.Write_error Unix.ENOSPC)
                else begin
                  let keep = bytes - offset in
                  st.flushed <- offset + keep;
                  Some
                    (Tabv_core.Io.Write_short
                       { bytes = keep; error = Unix.ENOSPC })
                end
              | _ -> None
            in
            match List.find_map decide a.armed_plan.faults with
            | Some d -> d
            | None -> allow ()
          end)

  let on_fsync a ~path =
    if not (in_scope a path) then Tabv_core.Io.Fsync_through
    else
      locked a (fun () ->
          let st = file_state a path in
          let n = a.fsyncs in
          a.fsyncs <- n + 1;
          if a.dead then Tabv_core.Io.Fsync_error Unix.EIO
          else begin
            let decide = function
              | Fsync_eio { op } when op = n ->
                fired a;
                Some (Tabv_core.Io.Fsync_error Unix.EIO)
              | Fsync_lie { op } when op = n ->
                fired a;
                Some Tabv_core.Io.Fsync_lost
              | _ -> None
            in
            match List.find_map decide a.armed_plan.faults with
            | Some d -> d
            | None ->
              st.durable <- st.flushed;
              Tabv_core.Io.Fsync_through
          end)

  (* Renames and closes carry no indexed fault: in scope, they fail
     once a [Power_cut] has fired. *)
  let after_power_cut a path =
    if not (in_scope a path) then Tabv_core.Io.Op_through
    else
      locked a (fun () ->
          if a.dead then Tabv_core.Io.Op_error Unix.EIO else Tabv_core.Io.Op_through)

  let hook a =
    {
      Tabv_core.Io.on_write = (fun ~path ~offset ~len -> on_write a ~path ~offset ~len);
      on_fsync = (fun ~path -> on_fsync a ~path);
      on_rename = (fun ~src:_ ~dst -> after_power_cut a dst);
      on_close = (fun ~path -> after_power_cut a path);
    }

  let install a = Tabv_core.Io.interpose (hook a)
  let uninstall () = Tabv_core.Io.clear_interpose ()
end
