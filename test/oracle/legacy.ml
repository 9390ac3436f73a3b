(* The original tree-rewriting progression, verbatim: the executable
   specification the interned engine is diffed against. *)

open Tabv_psl

exception Not_in_nnf of Ltl.t

type t =
  | True
  | False
  | Formula of Ltl.t  (* progressed at every evaluation point *)
  | At of int * Ltl.t  (* progress formula exactly at absolute time *)
  | And of t * t
  | Or of t * t

let ob_and a b =
  match a, b with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | _ -> if a = b then a else And (a, b)

let ob_or a b =
  match a, b with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | _ -> if a = b then a else Or (a, b)

let of_formula f =
  if not (Ltl.is_nnf f) then raise (Not_in_nnf f);
  Formula f

let rec is_true = function
  | True -> true
  | False | Formula _ | At _ -> false
  | And (a, b) -> is_true a && is_true b
  | Or (a, b) -> is_true a || is_true b

let rec is_false = function
  | False -> true
  | True | Formula _ | At _ -> false
  | And (a, b) -> is_false a || is_false b
  | Or (a, b) -> is_false a && is_false b

let rec next_evaluation_time = function
  | At (target, _) -> Some target
  | True | False | Formula _ -> None
  | And (a, b) | Or (a, b) ->
    (match next_evaluation_time a, next_evaluation_time b with
     | None, t | t, None -> t
     | Some x, Some y -> Some (min x y))

(* Progress a formula at the evaluation point [time]. *)
let rec progress ~time lookup f =
  match f with
  | Ltl.Atom e -> if Expr.eval lookup e then True else False
  | Ltl.Not (Ltl.Atom e) -> if Expr.eval lookup e then False else True
  | Ltl.Not _ | Ltl.Implies _ -> raise (Not_in_nnf f)
  | Ltl.And (p, q) ->
    ob_and (progress ~time lookup p) (progress ~time lookup q)
  | Ltl.Or (p, q) -> ob_or (progress ~time lookup p) (progress ~time lookup q)
  | Ltl.Next_n (1, p) -> Formula p
  | Ltl.Next_n (n, p) -> Formula (Ltl.next_n (n - 1) p)
  | Ltl.Next_event (ne, p) -> At (time + ne.Ltl.eps, p)
  | Ltl.Until (p, q) ->
    ob_or (progress ~time lookup q)
      (ob_and (progress ~time lookup p) (Formula f))
  | Ltl.Release (p, q) ->
    ob_and (progress ~time lookup q)
      (ob_or (progress ~time lookup p) (Formula f))
  | Ltl.Always p -> ob_and (progress ~time lookup p) (Formula f)
  | Ltl.Eventually p -> ob_or (progress ~time lookup p) (Formula f)

let rec step ~time lookup ob =
  match ob with
  | True -> True
  | False -> False
  | Formula f -> progress ~time lookup f
  | At (target, f) ->
    if time < target then ob
    else if time = target then progress ~time lookup f
    else False (* no observable event at the required instant *)
  | And (a, b) -> ob_and (step ~time lookup a) (step ~time lookup b)
  | Or (a, b) -> ob_or (step ~time lookup a) (step ~time lookup b)

let verdict ob =
  if is_true ob then Some true else if is_false ob then Some false else None
