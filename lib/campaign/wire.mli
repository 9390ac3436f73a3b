(** Wire codecs for process-isolated campaign execution.

    The subprocess executor ships jobs to forked workers and results
    back over pipes; the write-ahead journal persists completed
    results between runs.  Both speak the exact JSON the deterministic
    reports are built from, so a result that round-trips through a
    worker pipe or a journal line is field-for-field identical to one
    produced in-process.

    This module holds the generic halves: decoders for the shared
    observability records (whose emitters live in
    {!Tabv_core.Report_json} and {!Tabv_fault.Fault}).  The
    length-prefixed frames are {!Tabv_core.Frame}'s.  Campaign- and
    qualify-specific payload codecs live next to their types in
    [Campaign] and [Qualify]. *)

(** {2 Result-monad helpers (shared by the payload codecs)} *)

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result

val open_assoc :
  string -> Tabv_core.Report_json.json -> ((string * Tabv_core.Report_json.json) list, string) result

val open_list :
  string -> Tabv_core.Report_json.json -> (Tabv_core.Report_json.json list, string) result

val field :
  string -> string -> (string * Tabv_core.Report_json.json) list ->
  (Tabv_core.Report_json.json, string) result

val int_field :
  string -> string -> (string * Tabv_core.Report_json.json) list -> (int, string) result

val string_field :
  string -> string -> (string * Tabv_core.Report_json.json) list -> (string, string) result

val bool_field :
  string -> string -> (string * Tabv_core.Report_json.json) list -> (bool, string) result

(** {2 Observability record decoders} *)

(** Inverse of {!Tabv_core.Report_json.checker_snapshot_json}.  The
    derived ["cache_hit_rate"] float is ignored (it is recomputed from
    the integer fields on re-emission, so nothing lossy crosses the
    wire). *)
val checker_snapshot_of_json :
  Tabv_core.Report_json.json -> (Tabv_obs.Checker_snapshot.t, string) result

(** Inverse of {!Tabv_core.Report_json.metrics_snapshot_json}. *)
val metrics_snapshot_of_json :
  Tabv_core.Report_json.json ->
  ((string * Tabv_obs.Metrics.value) list, string) result

(** Inverse of {!Tabv_fault.Fault.diagnosis_json}. *)
val diagnosis_of_json :
  Tabv_core.Report_json.json -> (Tabv_sim.Kernel.diagnosis, string) result
