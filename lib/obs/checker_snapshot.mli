(** Per-property checker snapshot.

    The record form of a monitor's statistics, shared by the whole
    stack: [Tabv_checker.Monitor.snapshot] produces it, the
    testbenches expose it per run, and [Tabv_core.Report_json]
    serializes it into the versioned metrics JSON.  [Tabv_core] sits
    below the checker library in the dependency order, which is why
    the record lives in [tabv_obs] rather than in [Monitor] — the
    checker re-exports both record types, so the fields are usable
    under either module path. *)

type failure = {
  property_name : string;
  activation_time : int;  (** when the failing instance fired *)
  failure_time : int;  (** evaluation point that raised the failure *)
}

type t = {
  property_name : string;
  engine : string;
      (** checker synthesis backend; always ["progression"], kept as
          a report key *)
  activations : int;
  passes : int;
  trivial_passes : int;
  vacuous : bool;  (** evaluated but never non-trivially activated *)
  peak_instances : int;
  peak_distinct_states : int;
      (** peak distinct hash-consed live states *)
  pending : int;
  steps : int;  (** evaluation points consumed (after context gating) *)
  cache_hits : int;  (** monitor steps answered from the transition memo *)
  cache_misses : int;  (** monitor steps that ran the rewriting *)
  failures : failure list;
}

(** [hits / (hits + misses)], 0 when the checker never stepped. *)
val cache_hit_rate : t -> float

(** Total failures across a snapshot list. *)
val total_failures : t list -> int

val pp_failure : Format.formatter -> failure -> unit
val pp : Format.formatter -> t -> unit
