(* Hash-consed LTL terms.

   Every structurally distinct formula is represented by exactly one
   heap node, so equality is physical equality, every node carries a
   dense unique id usable as a hash-table key, and its hash is
   computed once per distinct term instead of once per occurrence.
   The table is domain-local and append-only: terms are never
   forgotten, which keeps ids stable for the lifetime of their domain
   — exactly what the checker's transition memo needs.

   Domain safety: every domain owns a private interning universe
   (table + id counter) behind [Domain.DLS], so concurrent workers
   (e.g. the campaign runner's job pool) never contend on, or corrupt,
   a shared hashtable.  A term interned on one domain must never be
   mixed with terms interned on another: [equal] is physical equality
   and the mutable per-node scratch slots ([sample_stamp]) are only
   race-free because a node is confined to the domain that interned
   it.  The single-domain fast path is unchanged: [Domain.DLS.get] on
   an initialized key is a handful of loads, no locks, no branches on
   the hot probe itself. *)

type t = {
  node : node;
  id : int;
  hkey : int;
  mutable sample_stamp : int;
      (* per-instant scratch slot for external atom-value caches (see
         the checker's [Sampler]): a cached boolean tagged by an
         opaque caller-owned stamp.  Living inside the node, a cache
         probe is one load and one compare — no hashtable. *)
  mutable sample_value : bool;
}

and node =
  | Atom of Expr.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next_n of int * t
  | Next_event of Ltl.next_event * t
  | Until of t * t
  | Release of t * t
  | Always of t
  | Eventually of t

(* One-level structural equality: children are compared physically,
   which is sound because they are already interned. *)
let node_equal a b =
  match a, b with
  | Atom e1, Atom e2 -> Expr.equal e1 e2
  | Not p1, Not p2 -> p1 == p2
  | And (p1, q1), And (p2, q2) -> p1 == p2 && q1 == q2
  | Or (p1, q1), Or (p2, q2) -> p1 == p2 && q1 == q2
  | Implies (p1, q1), Implies (p2, q2) -> p1 == p2 && q1 == q2
  | Next_n (n1, p1), Next_n (n2, p2) -> n1 = n2 && p1 == p2
  | Next_event (ne1, p1), Next_event (ne2, p2) ->
    ne1.Ltl.tau = ne2.Ltl.tau && ne1.Ltl.eps = ne2.Ltl.eps && p1 == p2
  | Until (p1, q1), Until (p2, q2) -> p1 == p2 && q1 == q2
  | Release (p1, q1), Release (p2, q2) -> p1 == p2 && q1 == q2
  | Always p1, Always p2 -> p1 == p2
  | Eventually p1, Eventually p2 -> p1 == p2
  | ( ( Atom _ | Not _ | And _ | Or _ | Implies _ | Next_n _ | Next_event _
      | Until _ | Release _ | Always _ | Eventually _ ),
      _ ) ->
    false

let node_hash = function
  | Atom e -> Hashtbl.hash (0, Hashtbl.hash e)
  | Not p -> Hashtbl.hash (1, p.id)
  | And (p, q) -> Hashtbl.hash (2, p.id, q.id)
  | Or (p, q) -> Hashtbl.hash (3, p.id, q.id)
  | Implies (p, q) -> Hashtbl.hash (4, p.id, q.id)
  | Next_n (n, p) -> Hashtbl.hash (5, n, p.id)
  | Next_event (ne, p) -> Hashtbl.hash (6, ne.Ltl.tau, ne.Ltl.eps, p.id)
  | Until (p, q) -> Hashtbl.hash (7, p.id, q.id)
  | Release (p, q) -> Hashtbl.hash (8, p.id, q.id)
  | Always p -> Hashtbl.hash (9, p.id)
  | Eventually p -> Hashtbl.hash (10, p.id)

module Table = Hashtbl.Make (struct
  type t = node

  let equal = node_equal
  let hash = node_hash
end)

(* One interning universe per domain.  [counter] is plain mutable
   state (not [Atomic]): it is only ever touched by its owning
   domain. *)
type universe = {
  table : t Table.t;
  mutable counter : int;
}

let fresh_universe () = { table = Table.create 1024; counter = 0 }
let universe_key : universe Domain.DLS.key = Domain.DLS.new_key fresh_universe
let universe () = Domain.DLS.get universe_key

let reset_universe () = Domain.DLS.set universe_key (fresh_universe ())

let make node =
  let u = universe () in
  (* Exception-based probe: hits (the common case once the formula set
     is warm) allocate nothing. *)
  match Table.find u.table node with
  | t -> t
  | exception Not_found ->
    let id = u.counter in
    u.counter <- id + 1;
    let t =
      {
        node;
        id;
        hkey = node_hash node;
        sample_stamp = min_int;
        sample_value = false;
      }
    in
    Table.add u.table node t;
    t

let node_count () = Table.length (universe ()).table

(* --- smart constructors ------------------------------------------- *)

let atom e = make (Atom e)

(* Functions, not values: a top-level [tt] would be interned into the
   initial domain's universe at module-init time and then leak — with
   its mutable scratch slot — into every other domain. *)
let tt () = atom (Expr.Bool true)
let ff () = atom (Expr.Bool false)
let not_ p = make (Not p)
let and_ p q = make (And (p, q))
let or_ p q = make (Or (p, q))
let implies p q = make (Implies (p, q))

let next_n n p =
  if n < 0 then invalid_arg "Interned.next_n: negative count"
  else if n = 0 then p
  else
    match p.node with
    | Next_n (m, inner) -> make (Next_n (n + m, inner))
    | _ -> make (Next_n (n, p))

let next_event ne p = make (Next_event (ne, p))
let until p q = make (Until (p, q))
let release p q = make (Release (p, q))
let always p = make (Always p)
let eventually p = make (Eventually p)

(* --- conversion ---------------------------------------------------- *)

let rec intern (f : Ltl.t) : t =
  match f with
  | Ltl.Atom e -> atom e
  | Ltl.Not p -> not_ (intern p)
  | Ltl.And (p, q) -> and_ (intern p) (intern q)
  | Ltl.Or (p, q) -> or_ (intern p) (intern q)
  | Ltl.Implies (p, q) -> implies (intern p) (intern q)
  | Ltl.Next_n (n, p) -> make (Next_n (n, intern p))
  | Ltl.Next_event (ne, p) -> next_event ne (intern p)
  | Ltl.Until (p, q) -> until (intern p) (intern q)
  | Ltl.Release (p, q) -> release (intern p) (intern q)
  | Ltl.Always p -> always (intern p)
  | Ltl.Eventually p -> eventually (intern p)

let rec to_ltl (t : t) : Ltl.t =
  match t.node with
  | Atom e -> Ltl.Atom e
  | Not p -> Ltl.Not (to_ltl p)
  | And (p, q) -> Ltl.And (to_ltl p, to_ltl q)
  | Or (p, q) -> Ltl.Or (to_ltl p, to_ltl q)
  | Implies (p, q) -> Ltl.Implies (to_ltl p, to_ltl q)
  | Next_n (n, p) -> Ltl.Next_n (n, to_ltl p)
  | Next_event (ne, p) -> Ltl.Next_event (ne, to_ltl p)
  | Until (p, q) -> Ltl.Until (to_ltl p, to_ltl q)
  | Release (p, q) -> Ltl.Release (to_ltl p, to_ltl q)
  | Always p -> Ltl.Always (to_ltl p)
  | Eventually p -> Ltl.Eventually (to_ltl p)

(* --- accessors ----------------------------------------------------- *)

let id t = t.id
let hash t = t.hkey
let sample_stamp t = t.sample_stamp
let sample_value t = t.sample_value

let set_sample t ~stamp ~value =
  t.sample_stamp <- stamp;
  t.sample_value <- value
let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Stdlib.compare a.id b.id
let node t = t.node

let rec is_nnf t =
  match t.node with
  | Atom _ -> true
  | Not { node = Atom _; _ } -> true
  | Not _ | Implies _ -> false
  | Next_n (_, p) | Next_event (_, p) | Always p | Eventually p -> is_nnf p
  | And (p, q) | Or (p, q) | Until (p, q) | Release (p, q) ->
    is_nnf p && is_nnf q

let pp ppf t = Ltl.pp ppf (to_ltl t)
let to_string t = Ltl.to_string (to_ltl t)
