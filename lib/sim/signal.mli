(** Signals with SystemC [sc_signal] semantics.

    A write stores the next value; the kernel applies it in the update
    phase of the current delta.  When the applied value differs from
    the current one the signal's value-change event is notified, waking
    sensitive processes in the next delta cycle.  Reads always return
    the current (pre-update) value, which is what makes zero-delay
    feedback loops and register semantics deterministic. *)

type 'a t

(** [create kernel ~name ?equal init] — [equal] defaults to structural
    equality.  The value lives in the signal record itself. *)
val create : Kernel.t -> name:string -> ?equal:('a -> 'a -> bool) -> 'a -> 'a t

(** {!create} with a monomorphic [equal]. *)
val create_bool : Kernel.t -> name:string -> bool -> bool t
val create_int : Kernel.t -> name:string -> int -> int t
val create_int64 : Kernel.t -> name:string -> int64 -> int64 t

val name : 'a t -> string

val read : 'a t -> 'a

(** Schedule [v] as the value after the next update phase. *)
val write : 'a t -> 'a -> unit

(** {2 Interposition (saboteurs)}

    A fault-injection layer may install one {e transform} per signal:
    each update-phase application first passes the driven value
    through the transform, so a saboteur can force, flip or glitch the
    observed value without touching the driving logic.  The honest
    driven value is retained internally — clearing the interposer and
    {!refresh}ing restores it. *)

(** [interpose t f] installs [f] as the signal's transform.
    @raise Invalid_argument if one is already installed (compose
    faults into one transform instead). *)
val interpose : 'a t -> ('a -> 'a) -> unit

val clear_interpose : 'a t -> unit
val interposed : 'a t -> bool

(** Request an update-phase re-application of the last driven value
    even without a new {!write}: this is how a saboteur arms or
    disarms at an instant where the design itself is silent. *)
val refresh : 'a t -> unit

(** Notified each time the value actually changes. *)
val changed : 'a t -> Event.t

(** Number of effective value changes so far. *)
val change_count : 'a t -> int
