(** The built-in DUV model catalog.

    One first-class enumeration of every model `tabv` can drive, with
    the plumbing every entry point shares: model names, the interface
    signals a property may mention, which property set a run attaches
    (including the Methodology III.1 abstraction on the
    approximately-timed models) and which testbench drives it.

    [bin/cli.ml] (one-shot subcommands) and {!Tabv_serve} (the
    verification service) are both thin clients of this module — the
    byte-identity contracts (record + recheck == live check; served
    report == one-shot CLI report) depend on every path building runs
    identically. *)

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

(** CLI-name / model pairs, in documentation order. *)
val names : (string * t) list

val name : t -> string
val of_name : string -> t option

(** The interface signal names properties may mention on this model. *)
val known_signals : t -> string list

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

(** Split the automatically-safe Methodology III.1 abstractions of
    [properties] into strict-wrapper properties and grid-wrapper ones
    (timed operators under until/release need the full clock grid).
    Clock period 10 ns. *)
val abstract_for_at :
  abstracted_signals:string list ->
  Tabv_psl.Property.t list ->
  Tabv_psl.Property.t list * Tabv_psl.Property.t list

(** [properties_for model user] — the [(properties, grid_properties)]
    a run actually attaches, in attach (= report) order, given the
    optional user property set. *)
val properties_for :
  t ->
  Tabv_psl.Property.t list option ->
  Tabv_psl.Property.t list * Tabv_psl.Property.t list

(** Drive [model] over its seeded workload.  [trace_writer] taps the
    checker evaluation points into a binary trace. *)
val run :
  ?metrics:Tabv_obs.Metrics.t ->
  ?trace_writer:Tabv_trace.Writer.t ->
  t ->
  seed:int ->
  ops:int ->
  properties:Tabv_psl.Property.t list ->
  grid_properties:Tabv_psl.Property.t list ->
  Testbench.run_result

(** Whether `tabv record` accepts this model (the LT model is not
    timing equivalent, so a trace of it would not replay
    meaningfully). *)
val supports_trace : t -> bool

(** The deterministic verdict report of one run: run identification
    plus per-property counters in attach order.  Every producer of
    this document (live check, recheck-from-trace, the serve daemon
    warm or cold) must be byte-identical. *)
val verdict_report :
  t -> seed:int -> ops:int -> Testbench.run_result -> Tabv_core.Report_json.json
