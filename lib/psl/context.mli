(** Evaluation contexts of properties (the [@] operator of PSL).

    An RTL property carries a {e clock context} stating at which clock
    events it is evaluated; a TLM property carries a {e transaction
    context} stating at which transaction events it is evaluated
    (Def. III.2 of the paper). *)

(** Which clock events trigger evaluation. *)
type clock_edge =
  | Any_edge  (** [@clk]: every clock event *)
  | Posedge  (** [@clk_pos] *)
  | Negedge  (** [@clk_neg] *)

(** RTL clock context.  The paper's designs are synchronised "with
    respect to the rising and/or falling edge of one or more clocks";
    [Named_edge] selects a clock other than the default one. *)
type clock =
  | Base_clock  (** the implicit context [true] *)
  | Edge of clock_edge  (** the default clock *)
  | Edge_and of clock_edge * Expr.t
      (** [@(clk_edge && var_expr)]: evaluate at clock events where the
          boolean expression also holds *)
  | Named_edge of string * clock_edge  (** e.g. [@clkB_pos] *)
  | Named_edge_and of string * clock_edge * Expr.t

(** TLM transaction context. *)
type transaction =
  | Base_trans  (** [T_b]: the end of every transaction *)
  | Trans_and of Expr.t
      (** [T_b && var_expr] (second case of Def. III.2) *)

type t =
  | Clock of clock
  | Transaction of transaction

val equal : t -> t -> bool

(** Signals mentioned by the gating expression of the context, [[]] for
    base contexts and plain edges. *)
val signals : t -> string list

(** Clock the context samples: [None] for the default clock, base
    contexts and transaction contexts. *)
val clock_name : t -> string option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
