(** Helpers shared by the DUV models. *)

(** Map a 64-bit data word to the integer used by the property layer.

    [Expr] values carry OCaml [int]s (63-bit); the properties only test
    data words for equality against small constants (e.g.
    [indata = 0]), so the mapping preserves exactly the property
    [int_of_data v = 0 <=> v = 0L] (a plain [Int64.to_int] would map
    [0x8000000000000000L] to [0]). *)
val int_of_data : int64 -> int

(** A model's signal table: each observable signal's name and a
    reader of its current value, in the model's fixed signal order.
    A model builds its table once, when it is elaborated. *)
type signals = (string * (unit -> Tabv_psl.Expr.value)) list

(** The resolver over a signal table, for observable environments
    backed by mutable state: a checker pool's sampler
    ({!Tabv_checker.Sampler.create}) resolves each signal once, when an
    atom is compiled, and then calls the reader directly. *)
val resolver_of : signals -> Tabv_psl.Expr.resolver

(** [vbool b] is one of two preallocated values: a boolean read does
    not allocate. *)
val vbool : bool -> Tabv_psl.Expr.value
val vint : int -> Tabv_psl.Expr.value
val vdata : int64 -> Tabv_psl.Expr.value
