(** Elaboration-time design check.

    The declarative front door to the simulation stack: a design
    registers typed signals, method processes (with sensitivity and
    declared write sets) and leaf components on an [Elab.t].  Just
    before the first kernel step the design is {e compiled}: the
    signal→process dependency graph is levelized (Kahn), and a
    zero-delay combinational cycle raises {!Cycle_error} carrying the
    source positions of the offending registrations.  Compilation only
    checks; the kernel schedules the registered processes as it would
    any other method process. *)

type t

(** [__POS__]-style source position: file, line, start col, end col. *)
type pos = string * int * int * int

(** Existentially packed signal, for write declarations. *)
type packed = Pack : 'a Signal.t -> packed

(** Raised by compilation when the dependency graph has a zero-delay
    cycle.  The message names every process on the cycle with the
    position it was registered at. *)
exception Cycle_error of string

(** [create kernel] — one elaboration context per kernel.  Registers a
    pre-run hook so compilation happens automatically before the first
    step of {!Kernel.run}. *)
val create : Kernel.t -> t

val kernel : t -> Kernel.t

(** {2 Declarative registration} *)

val signal_bool : t -> ?init:bool -> string -> bool Signal.t
val signal_int : t -> ?init:int -> string -> int Signal.t
val signal_int64 : t -> ?init:int64 -> string -> int64 Signal.t

(** Generic signal for non-scalar payloads (structural equality by
    default). *)
val signal : t -> ?equal:('a -> 'a -> bool) -> init:'a -> string -> 'a Signal.t

(** [process t ~name ?pos ?initialize ~sensitivity ?writes body]
    registers a method process through {!Process.method_process}:
    [body] runs once per notification of any [sensitivity] event (plus
    once at time zero unless [initialize] is [false]).  [writes] declares the signals the body
    drives; it feeds levelization.  Pass [?pos:(__POS__)] so
    elaboration errors point at the registration site.
    @raise Invalid_argument after compilation has run. *)
val process :
  t ->
  name:string ->
  ?pos:pos ->
  ?initialize:bool ->
  sensitivity:Event.t list ->
  ?writes:packed list ->
  (unit -> unit) ->
  unit

(** Register a leaf component with no signals or processes of its own
    (TLM targets/initiators): purely declarative, so every DUV —
    RTL or TLM — appears in the elaborated design. *)
val component : t -> string -> unit

val components : t -> string list

(** {2 Compilation} *)

(** Levelize now (idempotent; otherwise runs from the pre-run hook).
    @raise Cycle_error on a zero-delay combinational cycle. *)
val compile : t -> unit

(** Depth of the levelized schedule (0 for an empty design). *)
val levels : t -> int
