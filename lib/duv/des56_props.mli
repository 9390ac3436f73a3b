open Tabv_psl

(** The DES56 RTL property set: the three published properties of
    Fig. 3 (p1, p2, p3) plus six written in the same style, for a
    total of 9 as in the paper's evaluation (Sec. V).

    Signals [rdy_next_cycle] and [rdy_next_next_cycle] are the ones
    removed by the RTL-to-TLM-AT abstraction. *)

(** p1..p9, in order. *)
val all : Property.t list

(** The published Fig. 3 trio. *)
val p1 : Property.t

val p2 : Property.t
val p3 : Property.t

(** Signals abstracted away at TLM-AT. *)
val abstracted_signals : string list

(** The first [n] properties (the paper's "1 C" and "5 C" rows). *)
val take : int -> Property.t list

(** Abstraction reports for the whole set (clock 10 ns, renames
    [pK] to [qK]). *)
val abstraction_reports : unit -> Tabv_core.Methodology.report list

(** Surviving TLM properties whose signal abstraction was a logical
    consequence or a no-op, and whose timed operators are dischargeable
    on sparse AT traces — safe for fully automatic reuse. *)
val tlm_auto_safe : unit -> Property.t list

(** The property set after the paper's "human investigation" step
    (Sec. III-B) on the review-flagged abstractions:
    {ul
    {- [q7] is accepted as produced (one period after the strobe the
       result line is still low);}
    {- [q4] and [q8] lost their protocol meaning; they are refined to
       the TLM-level intents "a strobe is answered exactly one latency
       later" and "a result delivery never coincides with a strobe";}
    {- [q5] is dropped (pure handshake chaining, meaningless once the
       protocol is abstracted);}
    {- [q2] needs full-grid transactions and is deferred to the grid
       wrapper (see DESIGN.md).}} *)
val tlm_reviewed : unit -> Property.t list
