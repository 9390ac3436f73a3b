(** Deterministic fault injection for qualification campaigns.

    A {!plan} is a pure description of design bugs to inject — signal
    saboteurs, TLM transaction mutators and kernel-level chaos — that
    compiles, via {!install}, onto a concrete design through the
    {!Tabv_sim.Signal} and {!Tabv_sim.Tlm} interposition hooks.  No
    DUV logic is touched: saboteurs transform driven signal values in
    the update phase, mutators wrap the blocking-transport call, and
    chaos injections are scheduled kernel actions.  Everything is a
    function of the plan and the simulation schedule, so a replay of
    the same plan on the same design is bit-identical.

    The point (after Bombieri et al.'s re-use argument): inject the
    same conceptual fault at RTL and at the abstracted TLM levels and
    check that the rewritten property suite still detects it. *)

(** {2 Fault vocabulary} *)

(** A saboteur on one signal (or, inside {!Corrupt_field}, on one
    observable field).  Times are absolute instants in ns. *)
type signal_fault =
  | Stuck_at_0 of { from_ns : int }  (** all bits forced to 0 from [from_ns] on *)
  | Stuck_at_1 of { from_ns : int }  (** all bits forced to 1 from [from_ns] on *)
  | Bit_flip of { bit : int; at_ns : int }
      (** XOR of one bit during the single instant [at_ns] *)
  | Glitch of { bit : int; from_ns : int; duration_ns : int }
      (** XOR of one bit during \[[from_ns], [from_ns + duration_ns]) *)

(** A mutator on one initiator socket.  [index] is the 0-based count
    of transactions issued through that socket. *)
type tlm_fault =
  | Corrupt_field of { field : string; fault : signal_fault }
      (** after each transport call, pass the named observable field
          (bound by a {!lens}) through [fault] *)
  | Hang of { index : int }
      (** transaction [index] blocks forever (the initiator thread
          waits on an event that never fires — ends as [Starved]) *)

(** Hard failures: crash classes that no in-process exception handler
    can contain.  They exist to validate process-level isolation (the
    campaign subprocess executor): in-domain catching provably cannot
    survive them. *)
type hard_failure =
  | Abort  (** raise SIGABRT in the current process — immediate death *)
  | Alloc_storm
      (** grow the live heap monotonically, never returning
          (rate-limited to ~64 MiB/s so a wall-clock watchdog, not the
          OOM killer, is the expected containment in tests) *)
  | Busy_loop
      (** spin inside one action without yielding — invisible to the
          kernel's delta/step watchdogs, only an external wall-clock
          watchdog (SIGKILL) contains it *)

(** Kernel-level chaos, for exercising the watchdogs. *)
type chaos =
  | Crash of { at_ns : int; name : string }
      (** a labelled action raises at [at_ns] (ends as
          [Process_crashed] under [contain_crashes]) *)
  | Livelock_loop of { at_ns : int }
      (** an action reschedules itself every delta cycle from [at_ns]
          (ends as [Livelock] via the delta cap) *)

type injection =
  | Signal_fault of { signal : string; fault : signal_fault }
  | Tlm_mutation of { socket : string; fault : tlm_fault }
  | Chaos of chaos

type plan = {
  plan_name : string;
  injections : injection list;
}

(** ["abort"] / ["alloc_storm"] / ["busy_loop"] (also the campaign
    manifest's ["chaos_kind"] values). *)
val hard_failure_name : hard_failure -> string

val hard_failure_of_name : string -> hard_failure option

(** Execute one hard failure {e in the calling process} — never
    returns normally.  [Abort] terminates the process via SIGABRT;
    [Alloc_storm] and [Busy_loop] never terminate on their own.  Used
    by the campaign runner's deterministic per-job chaos hook. *)
val execute_hard_failure : hard_failure -> 'a

val plan : name:string -> injection list -> plan
val is_empty : plan -> bool

(** {2 JSON (reports)} *)

(** [{"plan": name, "injections": [{"kind": ..}, ..]}] with a
    deterministic key order, as the qualify report prints it. *)
val plan_json : plan -> Tabv_core.Report_json.json

(** A {!Tabv_sim.Kernel.diagnosis} as a JSON object, e.g.
    [{"kind":"livelock","time":40,"delta_cycles":1000000}]. *)
val diagnosis_json : Tabv_sim.Kernel.diagnosis -> Tabv_core.Report_json.json

(** Inverse of {!diagnosis_json} (worker pipes and journal lines carry
    diagnoses back). *)
val diagnosis_of_json :
  Tabv_core.Report_json.json -> (Tabv_sim.Kernel.diagnosis, string) result

(** {2 Binding and installation} *)

(** A signal a saboteur can attach to, with its bit width. *)
type target =
  | Bool_signal of bool Tabv_sim.Signal.t
  | Int_signal of { signal : int Tabv_sim.Signal.t; width : int }
  | Int64_signal of { signal : int64 Tabv_sim.Signal.t; width : int }

(** A named observable field for {!Corrupt_field}: getter/setter over
    an [int64] view plus the field's width.  DUV adapters point these
    at the model's observables record so corruption is visible to the
    property checkers, whatever the payload shape. *)
type lens = {
  get : unit -> int64;
  set : int64 -> unit;
  width : int;
}

type socket_binding = {
  initiator : Tabv_sim.Tlm.Initiator.t;
  fields : (string * lens) list;
}

(** What a plan's names resolve against for one concrete design. *)
type binding = {
  kernel : Tabv_sim.Kernel.t;
  signals : (string * target) list;
  sockets : (string * socket_binding) list;
}

type installed

(** Compile the plan onto the design: installs one composite transform
    per sabotaged signal ({!Tabv_sim.Signal.interpose}) with refreshes
    scheduled at every fault boundary instant, one mutator per socket
    ({!Tabv_sim.Tlm.Initiator.interpose}), and schedules chaos
    actions.  Registers [fault.armed] / [fault.triggered] probes on
    the kernel's metrics registry.
    @raise Invalid_argument when the plan names a signal, socket or
    field absent from the binding (plans are written per abstraction
    level). *)
val install : binding -> plan -> installed

(** Total fault activations so far: a saboteur application that
    changed a value, or a mutator/chaos firing.  [0] at the end of a
    run means the fault was {e latent} — never exercised. *)
val triggered : installed -> int

(** {2 Wire/transport fault plans}

    The same deterministic-saboteur philosophy one layer up the stack:
    instead of corrupting DUV signals, corrupt the length-prefixed
    byte stream a [tabv serve] client writes to the daemon.  A plan
    names {e which} outbound frame (0-based, counted across the
    client's whole life — reconnects included) suffers {e what};
    {!Net.arm}/{!Net.apply} turn one encoded frame into the wire
    {!Net.action}s a fault-aware sender executes.  Nothing in here
    touches a socket: the sender owns the fd and interprets the
    actions, so the vocabulary stays pure and testable without a
    daemon. *)
module Net : sig
  type fault =
    | Torn_frame of { frame : int; pieces : int }
        (** split the frame into [pieces] separate writes *)
    | Truncated_header of { frame : int; keep : int }
        (** write only the first [keep] header bytes, then reset *)
    | Corrupt_length of { frame : int; digit : int }
        (** rewrite hex digit [digit] (0-7) of the length prefix to a
            different digit, then reset (the stream past a lied-about
            length is unrecoverable) *)
    | Corrupt_version of { frame : int }
        (** overwrite the version field with [0xff], then reset *)
    | Slow_loris of { frame : int; delay_ms : int }
        (** dribble the frame out in up to 32 delayed writes *)
    | Reset_mid_frame of { frame : int; after : int }
        (** write [after] bytes of the frame, then reset *)
    | Delay_frame of { frame : int; delay_ms : int }
        (** hold the whole frame back [delay_ms], then send intact *)
    | Duplicate_frame of { frame : int }
        (** send the frame twice back-to-back *)
    | Handshake_garbage of { bytes : int }
        (** [bytes] of non-protocol noise before frame 0 (first byte
            is never a hex digit, so the reader fails instantly) *)

  type plan = {
    plan_name : string;
    faults : fault list;
  }

  val no_faults : plan
  val plan : name:string -> fault list -> plan

  (** [generate ~seed ~frames ~count] draws [count] faults over frames
      [0 .. frames-1].  Pure function of its arguments (private PRNG,
      drawn in index order). *)
  val generate : seed:int -> frames:int -> count:int -> plan

  (** One wire-level step of a faulted send, in order.  [`Reset]
      hard-closes the connection (both directions) and the sender
      treats the request as failed; actions after a [`Reset] are
      unreachable by construction. *)
  type action =
    [ `Chunk of string  (** write these bytes *)
    | `Delay_ms of int  (** sleep before the next action *)
    | `Reset  (** shut the socket down *)
    ]

  (** Mutable per-sender state: the outbound frame counter and the
      trigger count.  One [armed] per chaos client, surviving its
      reconnects. *)
  type armed

  val arm : plan -> armed

  (** [apply a frame_bytes] — the wire actions for the next outbound
      frame (versioned header assumed, as on every serve socket).  At
      most one fault fires per frame — the first in plan order —
      plus any handshake garbage before frame 0.  An unfaulted frame
      is exactly [[`Chunk frame_bytes]]. *)
  val apply : armed -> string -> action list

  (** Number of faults in the armed plan. *)
  val armed_faults : armed -> int

  (** Faults that actually fired so far (latent faults target frames
      never sent). *)
  val net_triggered : armed -> int

  val frames_sent : armed -> int
end

(** {2 Filesystem fault plans}

    The same methodology one layer {e down}: corrupt the durable-IO
    primitives every journal, trace and report write goes through
    ({!Tabv_core.Io}).  A plan names {e which} operation (0-based,
    counted per kind across all in-scope files) suffers {e what};
    {!Io.arm} compiles it into a {!Tabv_core.Io.hook} that
    {!Io.install} interposes globally.  The armed state additionally
    records every in-scope {e write boundary} (the flushed offset
    after each allowed chunk) and the {e durable prefix} (the offset
    at the last honest fsync) — the raw material for power-cut
    simulation: a crash image is the file truncated at a boundary, a
    lying-disk image is the file truncated to the durable prefix.
    Arming an empty plan is the pure observer the recovery soak uses
    to enumerate truncation points. *)
module Io : sig
  type fault =
    | Short_write of { op : int; keep : int }
        (** write op [op] persists only its first [keep] bytes, then
            fails with [ENOSPC] — a torn record *)
    | Enospc_after of { bytes : int }
        (** a full disk: cumulative in-scope writes past [bytes]
            bytes are cut short / refused with [ENOSPC] *)
    | Write_eio of { op : int }  (** write op [op] fails with [EIO] *)
    | Fsync_eio of { op : int }  (** fsync op [op] fails with [EIO] *)
    | Fsync_lie of { op : int }
        (** fsync op [op] reports success without syncing: the durable
            prefix does not advance, so a crash image drops the
            acknowledged bytes *)
    | Power_cut of { op : int }
        (** the machine dies at write op [op]: that write and every
            in-scope primitive after it fail with [EIO]; the harness
            then resumes from a truncated crash image *)

  type plan = {
    plan_name : string;
    scope : string;
        (** path suffix the plan applies to ([""] = every path); a
            [.tmp] sibling of an in-scope path is in scope too *)
    faults : fault list;
  }

  val plan : name:string -> scope:string -> fault list -> plan

  (** Mutable bookkeeping shared by one compiled plan: per-path write
      boundaries and durable prefixes, per-kind operation counters,
      the trigger count.  Thread-safe — journal appends consult the
      hook from worker domains. *)
  type armed

  val arm : plan -> armed

  (** The compiled hook; [install] interposes it globally. *)
  val hook : armed -> Tabv_core.Io.hook

  val install : armed -> unit

  (** Clears the global interpose hook. *)
  val uninstall : unit -> unit

  (** Faults that actually fired so far. *)
  val io_triggered : armed -> int

  (** In-scope flushed offsets of [path] after each allowed write,
      ascending — every prefix of the file a crash could leave
      behind. *)
  val write_boundaries : armed -> string -> int list

  (** Flushed offset of [path] at its last honest fsync (what an
      fsync-lie crash image keeps). *)
  val durable_prefix : armed -> string -> int
end
