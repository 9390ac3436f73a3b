type value =
  | VBool of bool
  | VInt of int
[@@deriving eq]

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
[@@deriving eq, ord]

type arith =
  | Int of int
  | Avar of string
  | Add of arith * arith
  | Sub of arith * arith
  | Mul of arith * arith
[@@deriving eq, ord]

type t =
  | Bool of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * arith * arith
[@@deriving eq, ord]

exception Eval_error of string

let rec signals_arith_acc acc = function
  | Int _ -> acc
  | Avar v -> v :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) ->
    signals_arith_acc (signals_arith_acc acc a) b

let rec signals_acc acc = function
  | Bool _ -> acc
  | Var v -> v :: acc
  | Not e -> signals_acc acc e
  | And (a, b) | Or (a, b) -> signals_acc (signals_acc acc a) b
  | Cmp (_, a, b) -> signals_arith_acc (signals_arith_acc acc a) b

let signals e = List.sort_uniq String.compare (signals_acc [] e)

let mentions_any e names =
  List.exists (fun s -> List.mem s names) (signals e)

let unbound v = Eval_error (Printf.sprintf "unbound signal %S" v)

let not_integer v =
  Eval_error (Printf.sprintf "signal %S is boolean, expected integer" v)

let eval_value lookup v =
  match lookup v with
  | Some value -> value
  | None -> raise (unbound v)

(* Binary operands are evaluated left to right (explicit [let]s: OCaml
   leaves argument order unspecified), so the first failing signal is
   the one reported, here and in [compile]. *)
let rec eval_arith lookup = function
  | Int n -> n
  | Avar v ->
    (match eval_value lookup v with
     | VInt n -> n
     | VBool _ -> raise (not_integer v))
  | Add (a, b) ->
    let x = eval_arith lookup a in
    x + eval_arith lookup b
  | Sub (a, b) ->
    let x = eval_arith lookup a in
    x - eval_arith lookup b
  | Mul (a, b) ->
    let x = eval_arith lookup a in
    x * eval_arith lookup b

let apply_cmp op (a : int) b =
  match op with
  | Eq -> a = b
  | Neq -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let rec eval lookup = function
  | Bool b -> b
  | Var v ->
    (match eval_value lookup v with
     | VBool b -> b
     | VInt n -> n <> 0)
  | Not e -> not (eval lookup e)
  | And (a, b) -> eval lookup a && eval lookup b
  | Or (a, b) -> eval lookup a || eval lookup b
  | Cmp (op, a, b) ->
    let x = eval_arith lookup a in
    apply_cmp op x (eval_arith lookup b)

(* --- compilation ---------------------------------------------------- *)

type resolver = string -> (unit -> value) option

(* A signal the resolver does not know compiles to a reader that
   raises when run, so compiling never fails and the error surfaces at
   the same evaluation, with the same message, as in [eval]. *)
let compile_read resolve v =
  match resolve v with
  | Some read -> read
  | None -> fun () -> raise (unbound v)

let rec compile_arith resolve = function
  | Int n -> fun () -> n
  | Avar v ->
    let read = compile_read resolve v in
    fun () ->
      (match read () with
       | VInt n -> n
       | VBool _ -> raise (not_integer v))
  | Add (a, b) ->
    let fa = compile_arith resolve a and fb = compile_arith resolve b in
    fun () ->
      let x = fa () in
      x + fb ()
  | Sub (a, b) ->
    let fa = compile_arith resolve a and fb = compile_arith resolve b in
    fun () ->
      let x = fa () in
      x - fb ()
  | Mul (a, b) ->
    let fa = compile_arith resolve a and fb = compile_arith resolve b in
    fun () ->
      let x = fa () in
      x * fb ()

let rec assoc_value name = function
  | [] -> raise (unbound name)
  | (n, v) :: rest -> if String.equal n name then v else assoc_value name rest

let env_resolver env name = Some (fun () -> assoc_value name !env)

let rec compile resolve = function
  | Bool b -> fun () -> b
  | Var v ->
    let read = compile_read resolve v in
    fun () ->
      (match read () with
       | VBool b -> b
       | VInt n -> n <> 0)
  | Not e ->
    let f = compile resolve e in
    fun () -> not (f ())
  | And (a, b) ->
    let fa = compile resolve a and fb = compile resolve b in
    fun () -> fa () && fb ()
  | Or (a, b) ->
    let fa = compile resolve a and fb = compile resolve b in
    fun () -> fa () || fb ()
  | Cmp (op, a, b) ->
    let fa = compile_arith resolve a and fb = compile_arith resolve b in
    fun () ->
      let x = fa () in
      apply_cmp op x (fb ())

let rec simplify = function
  | (Bool _ | Var _) as e -> e
  | Not e ->
    (match simplify e with
     | Bool b -> Bool (not b)
     | Not inner -> inner
     | e' -> Not e')
  | And (a, b) ->
    (match simplify a, simplify b with
     | Bool false, _ | _, Bool false -> Bool false
     | Bool true, e | e, Bool true -> e
     | a', b' -> And (a', b'))
  | Or (a, b) ->
    (match simplify a, simplify b with
     | Bool true, _ | _, Bool true -> Bool true
     | Bool false, e | e, Bool false -> e
     | a', b' -> Or (a', b'))
  | Cmp (op, a, b) as e ->
    (match a, b with
     | Int x, Int y -> Bool (apply_cmp op x y)
     | _ -> e)

let pp_value ppf = function
  | VBool b -> Format.pp_print_bool ppf b
  | VInt n -> Format.pp_print_int ppf n

let cmp_symbol = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Arithmetic precedence: Add/Sub = 1, Mul = 2, primary = 3. *)
let rec pp_arith_prec prec ppf a =
  let paren p body =
    if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match a with
  | Int n ->
    if n < 0 then Format.fprintf ppf "(%d)" n else Format.pp_print_int ppf n
  | Avar v -> Format.pp_print_string ppf v
  | Add (x, y) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a + %a" (pp_arith_prec 1) x (pp_arith_prec 2) y)
  | Sub (x, y) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a - %a" (pp_arith_prec 1) x (pp_arith_prec 2) y)
  | Mul (x, y) ->
    paren 2 (fun ppf ->
      Format.fprintf ppf "%a * %a" (pp_arith_prec 2) x (pp_arith_prec 3) y)

let pp_arith ppf a = pp_arith_prec 0 ppf a

(* Boolean precedence: Or = 1, And = 2, Not = 3, Cmp/primary = 4. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Bool b -> Format.pp_print_bool ppf b
  | Var v -> Format.pp_print_string ppf v
  | Not inner ->
    paren 3 (fun ppf -> Format.fprintf ppf "!%a" (pp_prec 3) inner)
  | And (a, b) ->
    paren 2 (fun ppf ->
      Format.fprintf ppf "%a && %a" (pp_prec 2) a (pp_prec 3) b)
  | Or (a, b) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a || %a" (pp_prec 1) a (pp_prec 2) b)
  | Cmp (op, a, b) ->
    paren 4 (fun ppf ->
      Format.fprintf ppf "%a %s %a" pp_arith a (cmp_symbol op) pp_arith b)

let pp ppf e = pp_prec 0 ppf e
let to_string e = Format.asprintf "%a" pp e
