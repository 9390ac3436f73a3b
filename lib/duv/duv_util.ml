let int_of_data v =
  if v = 0L then 0
  else
    let truncated = Int64.to_int v in
    if truncated = 0 then 1 else truncated

type signals = (string * (unit -> Tabv_psl.Expr.value)) list

let resolver_of signals name = List.assoc_opt name signals

(* Structured constants: a boolean read allocates nothing. *)
let vtrue = Tabv_psl.Expr.VBool true
let vfalse = Tabv_psl.Expr.VBool false
let vbool b = if b then vtrue else vfalse
let vint n = Tabv_psl.Expr.VInt n
let vdata v = Tabv_psl.Expr.VInt (int_of_data v)
