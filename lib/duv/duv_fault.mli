open Tabv_fault

(** A catalog of named cross-level faults for qualification campaigns.

    The catalog names conceptual design bugs ("out_stuck0",
    "rdy_glitch", ...) and compiles each into the level-appropriate
    plan: a saboteur on the port signal at RTL, a [Corrupt_field]
    mutator on the model's initiator socket ({!Models.socket}) at the
    TLM levels.  Each model resolves a plan's names through the fault
    binding it hands {!Testbench.run}.  {!plan_for} answers [None]
    where the fault's carrier was abstracted away at that level (e.g.
    [rdy_next_cycle] at TLM-AT). *)

(** Fault names for one DUV, in canonical (report) order. *)
val fault_names : Models.duv -> string list

(** The level-appropriate plan for a named fault; [None] when the
    fault has no carrier at that level.
    @raise Invalid_argument on an unknown fault name. *)
val plan_for : Models.duv -> Models.level -> string -> Fault.plan option

(** {2 Chaos / resilience plans} *)

val crash_plan : at_ns:int -> name:string -> Fault.plan
val livelock_plan : at_ns:int -> Fault.plan

(** A [Hang] mutator on the DUV's initiator socket (TLM levels only):
    the driver blocks forever and the run ends [Starved] — the
    deadlock scenario. *)
val hang_plan : Models.duv -> Models.level -> index:int -> Fault.plan option
