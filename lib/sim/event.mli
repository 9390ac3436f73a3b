(** Simulation events.

    Events carry two kinds of subscribers:
    {ul
    {- {e static} subscribers (method-process sensitivity): invoked on
       every notification;}
    {- {e dynamic} subscribers (thread waits): invoked once and then
       removed.}}

    Notifications use delta semantics: subscribers run in the next
    delta cycle of the current instant, never within the notifying
    phase.  A notification schedules the static subscribers, then the
    dynamic ones, each in registration order. *)

type t

val create : Kernel.t -> string -> t
val name : t -> string

(** Delta notification: subscribers run in the next delta cycle. *)
val notify : t -> unit

(** Subscribe statically (persistent). *)
val on_event : t -> (unit -> unit) -> unit

(** Subscribe for a single notification. *)
val once : t -> (unit -> unit) -> unit

(** Number of notifications delivered so far. *)
val notification_count : t -> int
