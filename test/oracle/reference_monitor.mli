open Tabv_psl

(** Reference property monitor: the checker wrapper of Sec. IV in its
    plainest form — one live instance per activation, stepped one by
    one — over either oracle generator ({!Legacy} rewriting or the
    {!Automaton} tables).  Same activation, gating, retirement and
    failure-attribution rules as {!Tabv_checker.Monitor}, whose
    counters must match it on every trace. *)

type failure = Tabv_obs.Checker_snapshot.failure = {
  property_name : string;
  activation_time : int;
  failure_time : int;
}

type backend =
  [ `Legacy
  | `Automaton
  ]

type t

(** [create backend property] synthesizes the checker.
    @raise Automaton.Unsupported when [`Automaton] cannot table the
    property body (timed operators, too many atoms, more than 256
    states). *)
val create : backend -> Property.t -> t

val step : t -> time:int -> (string -> Expr.value option) -> unit

(** Chronological by failure time, ascending activation time within
    one evaluation point. *)
val failures : t -> failure list

val activations : t -> int
val passes : t -> int
val trivial_passes : t -> int
val pending : t -> int
val peak_instances : t -> int
val steps : t -> int
val vacuous : t -> bool

(** Next timed-evaluation instant of every live instance waiting on a
    [next_eps^tau] obligation, ascending (always empty under
    [`Automaton], which cannot table timed operators). *)
val evaluation_table : t -> int list

(** [run backend properties trace] steps a fresh monitor per property
    at every trace entry — the offline replay of a recorded run. *)
val run : backend -> Property.t list -> Trace.t -> (Property.t * t) list
