(** Boolean-layer expressions over DUV signals.

    Atomic propositions of PSL properties are built from this layer:
    boolean signals, integer signals compared against arithmetic
    expressions, and boolean connectives.  Expressions are interpreted
    against a lookup function mapping signal names to current values
    ({!eval}), or compiled once against a resolver into a closure
    ({!compile}). *)

(** Runtime value of a signal. *)
type value =
  | VBool of bool
  | VInt of int

(** Comparison operators of the boolean layer. *)
type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

(** Integer arithmetic over signals. *)
type arith =
  | Int of int
  | Avar of string
  | Add of arith * arith
  | Sub of arith * arith
  | Mul of arith * arith

(** Boolean expressions. *)
type t =
  | Bool of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * arith * arith

(** Raised by {!eval} on unbound signals or type mismatches. *)
exception Eval_error of string

val equal : t -> t -> bool
val compare : t -> t -> int
val equal_value : value -> value -> bool

(** [signals e] is the sorted, duplicate-free list of signal names
    mentioned anywhere in [e]. *)
val signals : t -> string list

(** [mentions_any e names] is true iff [e] mentions at least one of
    [names]. *)
val mentions_any : t -> string list -> bool

(** [eval lookup e] evaluates [e], the operands of a binary operator
    left to right.  This is the reference interpreter; checkers run
    {!compile}d atoms instead.
    @raise Eval_error on unbound signals or type mismatches. *)
val eval : (string -> value option) -> t -> bool

(** Where a compiled expression reads its signals: [resolve name] is
    the reader of signal [name], or [None] when there is no such
    signal.  It is asked once per signal occurrence, at compile time. *)
type resolver = string -> (unit -> value) option

(** [compile resolve e] resolves every signal of [e] once and returns
    a closure that evaluates [e] against the readers: the same result
    as [eval], reading signals in the same order with the same
    short-circuits.  Compiling never raises; an unbound or ill-typed
    signal raises {!Eval_error}, with [eval]'s message, when the
    closure runs. *)
val compile : resolver -> t -> unit -> bool

(** [env_resolver env] reads every signal from whatever environment
    [!env] holds when a compiled closure runs (offline checking, where
    the environment changes with every sample); a name absent from it
    raises {!Eval_error} with [eval]'s unbound-signal message. *)
val env_resolver : (string * value) list ref -> resolver

(** Structural simplification: constant folding and unit laws.  The
    result is [Bool _] whenever the expression is constant. *)
val simplify : t -> t

val pp_value : Format.formatter -> value -> unit

(** Precedence-aware printer; output is re-parseable by {!Parser}. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
