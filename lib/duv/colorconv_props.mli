open Tabv_psl

(** The ColorConv RTL property set (12 properties, as in the paper's
    evaluation): latency, pipeline-occupancy chaining on the
    stage-valid flags v1..v7 (removed at TLM-AT), and output range
    invariants. *)

val all : Property.t list
val abstracted_signals : string list
val take : int -> Property.t list
val abstraction_reports : unit -> Tabv_core.Methodology.report list
val tlm_auto_safe : unit -> Property.t list

(** Post-review set: the auto-safe properties plus manual refinements
    of the intents lost with the stage-valid signals (black pixels get
    neutral chroma at the output instant; every accepted pixel yields
    an in-range luma exactly one latency later). *)
val tlm_reviewed : unit -> Property.t list
