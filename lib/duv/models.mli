(** The model catalog.

    One first-class enumeration of every model `tabv` can drive — each
    DUV at each abstraction level — with the facts every entry point
    shares: model, DUV and level names, initiator sockets, the
    interface signals a property may mention, which property set a run
    attaches (including the Methodology III.1 abstraction on the
    approximately-timed models) and the model value that drives it.

    The CLI, campaigns, qualification runs and {!Tabv_serve} are all
    thin clients of this module — the byte-identity contracts
    (record + recheck == live check; served report == one-shot CLI
    report) depend on every path building runs identically. *)

type duv =
  | Des56
  | Colorconv
  | Memctrl

type level =
  | Rtl
  | Tlm_ca
  | Tlm_at
  | Tlm_lt  (** DES56 only: loosely-timed, boolean invariants only *)

type t =
  | Des56_rtl
  | Des56_ca
  | Des56_at
  | Des56_lt
  | Colorconv_rtl
  | Colorconv_ca
  | Colorconv_at
  | Memctrl_rtl
  | Memctrl_ca
  | Memctrl_at

val duv_name : duv -> string
val level_name : level -> string
val duv_of_name : string -> duv option
val level_of_name : string -> level option

(** The model of one DUV at one level; [None] where the DUV has no
    model at that level (the loosely-timed level exists only for
    DES56). *)
val of_duv_level : duv -> level -> t option

(** CLI-name / model pairs, in documentation order.  A model's name is
    its DUV's and its level's, joined by ["-"] (["des56-tlm-ca"]). *)
val names : (string * t) list

val name : t -> string
val of_name : string -> t option

(** A catalog entry: the model value and the generator of its seeded
    workload of [ops] operations ({!Workload}). *)
type entry =
  | Entry : 'w Testbench.model * (seed:int -> ops:int -> 'w) -> entry

val entry : t -> entry

(** Name of the model's initiator socket, the target of TLM fault
    mutators; [None] at RTL. *)
val socket : t -> string option

(** [check_signals model properties] is [Error message] when the
    properties read signals [model] does not expose — the message
    names them, sorted — and [Ok ()] otherwise.  Checked before
    simulating: a checker pool samples every atom at every evaluation
    point, so a property over a missing signal cannot run. *)
val check_signals : t -> Tabv_psl.Property.t list -> (unit, string) result

(** [check_ops ops] is [Error message] naming [ops] unless it is
    positive.  Checked before simulating, beside {!check_signals}: a
    run of no operations would report every property vacuous. *)
val check_ops : int -> (unit, string) result

(** The signals the DUV's TLM-AT model abstracts away. *)
val abstracted_signals : duv -> string list

(** [properties_for model user] — the [(properties, grid_properties)]
    a run actually attaches, in attach (= report) order, given the
    optional user property set.  [None] selects the built-in suite:
    the Fig. 3 sets at RTL/TLM-CA, the abstracted (auto-safe +
    reviewed) sets at TLM-AT, the boolean invariant [lt_inv] at
    TLM-LT. *)
val properties_for :
  t ->
  Tabv_psl.Property.t list option ->
  Tabv_psl.Property.t list * Tabv_psl.Property.t list

(** [run r model ~seed ~ops] drives [model] over its seeded workload
    of [ops] operations through {!Testbench.run}.  The workload is
    generated on every call; a caller timing runs takes it from
    {!entry} once. *)
val run : Testbench.run -> t -> seed:int -> ops:int -> Testbench.run_result

(** Whether `tabv record` accepts this model (the LT model is not
    timing equivalent, so a trace of it would not replay
    meaningfully). *)
val supports_trace : t -> bool

(** A caller's property source, read when a job is admitted: [Ok None]
    selects the built-in suite, [Ok (Some (source, properties))] a user
    set named [source] (a file path, or ["props"] for inline text).
    Reading and parsing it is the caller's step. *)
type props =
  unit -> ((string * Tabv_psl.Property.t list) option, string) result

(** [user_properties model props] reads [props] and refuses a set
    naming signals [model] lacks ({!check_signals}), the message
    prefixed with the source's name. *)
val user_properties :
  t -> props -> (Tabv_psl.Property.t list option, string) result

(** [simulate ~metrics ~trace_out model ~seed ~ops ~props] — one check
    ([trace_out = None]) or record job, admitted and run the same way
    by [tabv check], [tabv record] and the serve daemon.  It refuses,
    in order: [ops] ({!check_ops}), the user's properties
    ({!user_properties}), then a trace of a model that records none
    ({!supports_trace}); then opens the trace and runs {!run} inside
    {!Tabv_trace.Writer.protect}.  The writer is returned for its
    counters.
    @raise Tabv_core.Io.Io_error when the trace cannot be opened,
    written or synced — each caller words it. *)
val simulate :
  metrics:Tabv_obs.Metrics.t option ->
  trace_out:string option ->
  t ->
  seed:int ->
  ops:int ->
  props:props ->
  (Testbench.run_result * Tabv_trace.Writer.t option, string) result

(** The deterministic verdict report of one run: run identification
    plus per-property counters in attach order.  Every producer of
    this document (live check, recheck-from-trace, the serve daemon
    warm or cold) must be byte-identical. *)
val verdict_report :
  t -> seed:int -> ops:int -> Testbench.run_result -> Tabv_core.Report_json.json
