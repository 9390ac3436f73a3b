(** Simulation events.

    Events carry two kinds of subscribers:
    {ul
    {- {e static} subscribers (method-process sensitivity): invoked on
       every notification;}
    {- {e dynamic} subscribers (thread waits): invoked once and then
       removed.}}

    Notifications use delta semantics: subscribers run in the next
    delta cycle of the current instant, never within the notifying
    phase. *)

type t

val create : Kernel.t -> string -> t
val name : t -> string
val kernel : t -> Kernel.t

(** Delta notification: subscribers run in the next delta cycle. *)
val notify : t -> unit

(** Timed notification after [delay >= 0] ns ([delay = 0] is a delta
    notification at the current instant). *)
val notify_after : t -> delay:int -> unit

(** Subscribe statically (persistent). *)
val on_event : t -> (unit -> unit) -> unit

(** Like {!on_event}, returning the subscription's index (used by
    {!Elab} to find the handler runs {!fuse} collapses). *)
val subscribe : t -> (unit -> unit) -> int

(** Install the fused view of the static subscribers (compiled
    engine, used by {!Elab.compile}): each span [((first, last),
    block)] — sorted, non-overlapping, inclusive handler-index runs —
    is replaced by its single [block] action, handlers outside the
    spans stay in place, so fire-time order is unchanged.  The view is
    invalidated by any later {!subscribe}.
    @raise Invalid_argument on unsorted, overlapping or out-of-range
    spans. *)
val fuse : t -> ((int * int) * (unit -> unit)) list -> unit

(** Subscribe for a single notification. *)
val once : t -> (unit -> unit) -> unit

(** Number of notifications delivered so far. *)
val notification_count : t -> int
