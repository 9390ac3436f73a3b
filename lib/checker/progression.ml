open Tabv_psl

exception Not_in_nnf of Ltl.t

(* Obligations are hash-consed exactly like Interned formulas: a state
   is one heap node with a dense id, so identical live instances
   collapse by construction and the transition memo can key on the id. *)

type t = {
  onode : onode;
  oid : int;
  horizon : int;
      (* the largest [remaining] of a wait in the state, or -1 when it
         holds none: a step by any [dt] past it fails every wait alike *)
  mutable memo : memo_entry;
      (* transition memo, inlined into the hash-consed state so the
         hot path is one pointer load instead of a hashtable probe *)
}

and onode =
  | OTrue
  | OFalse
  | OFormula of Interned.t
  | OAt of int * Interned.t
      (* [next_eps^tau] wait: ns from the owning monitor's last step
         until the operand is due *)
  | OAnd of t * t
  | OOr of t * t

(* The result of one step is a pure function of the elapsed [dt] and
   of the values of the atoms the progression reads — and because
   progression never short-circuits, the set and order of atoms read
   is fixed per (state, dt).  The memo therefore stores, per state and
   per [dt], the atom read-set (discovered on the first miss) and a
   table from packed atom valuations to successor states: the paper's
   explicit checker automaton, built lazily and only over reachable
   states.  Only a state holding a wait depends on [dt]; every other
   state keeps one row. *)
and memo_entry =
  | No_memo  (* state not stepped yet *)
  | Dense of {
      atoms : Interned.t array;  (* unique atoms read, first-read order *)
      successors : t array;
          (* indexed by packed valuation, [2^|atoms|] slots;
             [no_successor] until the transition is first taken *)
    }
  | Transitions of {
      atoms : Interned.t array;
      results : (int, t) Hashtbl.t;  (* packed valuation -> successor *)
    }
  | Unmemoizable  (* more than [max_memo_atoms] distinct atoms *)
  | Per_dt of dt_row list
      (* a state holding a wait: one row per clamped [dt], newest first *)

and dt_row = {
  dt : int;
  mutable row : memo_entry;  (* never [Per_dt] *)
}

let onode_equal a b =
  match a, b with
  | OTrue, OTrue | OFalse, OFalse -> true
  | OFormula f1, OFormula f2 -> f1 == f2
  | OAt (t1, f1), OAt (t2, f2) -> t1 = t2 && f1 == f2
  | OAnd (a1, b1), OAnd (a2, b2) -> a1 == a2 && b1 == b2
  | OOr (a1, b1), OOr (a2, b2) -> a1 == a2 && b1 == b2
  | (OTrue | OFalse | OFormula _ | OAt _ | OAnd _ | OOr _), _ -> false

let onode_hash = function
  | OTrue -> 0
  | OFalse -> 1
  | OFormula f -> Hashtbl.hash (2, Interned.id f)
  | OAt (remaining, f) -> Hashtbl.hash (3, remaining, Interned.id f)
  | OAnd (a, b) -> Hashtbl.hash (4, a.oid, b.oid)
  | OOr (a, b) -> Hashtbl.hash (5, a.oid, b.oid)

module Ob_table = Hashtbl.Make (struct
  type t = onode

  let equal = onode_equal
  let hash = onode_hash
end)

(* The canonical True/False states are shared by every domain: they
   are safe to share because they are the only obligations whose
   [memo] field is never written (stepping True/False returns the
   state itself before touching the memo), so they carry no mutable
   state in practice.  Sharing them keeps [is_true]/[is_false] a
   physical comparison against one node, domain-independent. *)
let ob_true = { onode = OTrue; oid = 0; horizon = -1; memo = No_memo }
let ob_false = { onode = OFalse; oid = 1; horizon = -1; memo = No_memo }

(* Per-domain obligation universe: hash-cons table, id counter and the
   transition-memo statistics all live behind [Domain.DLS], mirroring
   [Interned]'s per-domain formula universe, so concurrent campaign
   workers build their checker automata without sharing (or
   corrupting) any table.  Fresh universes are pre-seeded with the
   shared True/False states. *)
type stats_record = {
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable transitions : int;
}

type universe = {
  ob_table : t Ob_table.t;
  mutable ob_counter : int;
  ustats : stats_record;
}

let fresh_universe () =
  let ob_table = Ob_table.create 1024 in
  Ob_table.add ob_table OTrue ob_true;
  Ob_table.add ob_table OFalse ob_false;
  {
    ob_table;
    ob_counter = 2;
    ustats = { hits = 0; misses = 0; bypassed = 0; transitions = 0 };
  }

let universe_key : universe Domain.DLS.key = Domain.DLS.new_key fresh_universe
let universe () = Domain.DLS.get universe_key

(* Fresh obligation universe *and* fresh interned-formula universe for
   the calling domain: one call gives a batch runner a cold, isolated
   checker world per job. *)
let reset_universe () =
  Domain.DLS.set universe_key (fresh_universe ());
  Interned.reset_universe ()

let onode_horizon = function
  | OTrue | OFalse | OFormula _ -> -1
  | OAt (remaining, _) -> remaining
  | OAnd (a, b) | OOr (a, b) -> max a.horizon b.horizon

let make onode =
  let u = universe () in
  (* Exception-based probe: hits allocate nothing. *)
  match Ob_table.find u.ob_table onode with
  | ob -> ob
  | exception Not_found ->
    let oid = u.ob_counter in
    u.ob_counter <- oid + 1;
    let ob = { onode; oid; horizon = onode_horizon onode; memo = No_memo } in
    Ob_table.add u.ob_table onode ob;
    ob

let formula f = make (OFormula f)
let at remaining f = make (OAt (remaining, f))

(* Conjunction/disjunction with unit/absorption laws and O(1)
   duplicate collapse.  Binary operands are ordered by id: [and]/[or]
   are commutative, so canonicalizing the operand order makes states
   reached through different evaluation orders coincide. *)
let ob_and a b =
  match a.onode, b.onode with
  | OFalse, _ | _, OFalse -> ob_false
  | OTrue, _ -> b
  | _, OTrue -> a
  | _ ->
    if a == b then a
    else if a.oid <= b.oid then make (OAnd (a, b))
    else make (OAnd (b, a))

let ob_or a b =
  match a.onode, b.onode with
  | OTrue, _ | _, OTrue -> ob_true
  | OFalse, _ -> b
  | _, OFalse -> a
  | _ ->
    if a == b then a
    else if a.oid <= b.oid then make (OOr (a, b))
    else make (OOr (b, a))

let id ob = ob.oid

let of_formula f =
  if not (Ltl.is_nnf f) then raise (Not_in_nnf f);
  formula (Interned.intern f)


(* Thanks to the absorption laws in [ob_and]/[ob_or], OTrue/OFalse can
   only ever appear as the root of an obligation. *)
let is_true ob = ob == ob_true
let is_false ob = ob == ob_false

let verdict ob =
  if is_true ob then Some true else if is_false ob then Some false else None

let has_timed_wait ob = ob.horizon >= 0

let rec next_evaluation_in ob =
  match ob.onode with
  | OAt (remaining, _) -> Some remaining
  | OTrue | OFalse | OFormula _ -> None
  | OAnd (a, b) | OOr (a, b) ->
    if ob.horizon < 0 then None
    else (
      match next_evaluation_in a, next_evaluation_in b with
      | None, t | t, None -> t
      | Some x, Some y -> Some (min x y))

(* --- transition memo ---------------------------------------------- *)

let max_memo_atoms = 62

(* Rows reading at most this many atoms index their successors by the
   packed valuation directly (at most 256 slots), so a hit costs one
   array load instead of a polymorphic hash and compare. *)
let max_dense_atoms = 8

(* Placeholder successor of a dense row slot never taken; physically
   distinct from every interned obligation. *)
let no_successor = { onode = OFalse; oid = -1; horizon = -1; memo = No_memo }

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_bypassed : int;
  distinct_states : int;
  distinct_transitions : int;
  interned_formulas : int;
}

let cache_stats () =
  let u = universe () in
  {
    cache_hits = u.ustats.hits;
    cache_misses = u.ustats.misses;
    cache_bypassed = u.ustats.bypassed;
    (* The pre-seeded True/False states count, exactly as they did
       when they were interned at module-init time. *)
    distinct_states = Ob_table.length u.ob_table;
    distinct_transitions = u.ustats.transitions;
    interned_formulas = Interned.node_count ();
  }

(* --- progression over interned terms ------------------------------- *)

(* [eval] evaluates an interned [Atom] node at the current instant; it
   is the only window through which progression observes the DUV, so
   wrapping it (recording, per-instant caching) captures exactly the
   atoms read.  Progressing into a [next_eps^tau] starts a wait of
   [eps] from this step, whatever the instant. *)
let rec progress eval f =
  match Interned.node f with
  | Interned.Atom _ -> if eval f then ob_true else ob_false
  | Interned.Not inner ->
    (match Interned.node inner with
     | Interned.Atom _ -> if eval inner then ob_false else ob_true
     | _ -> raise (Not_in_nnf (Interned.to_ltl f)))
  | Interned.Implies _ -> raise (Not_in_nnf (Interned.to_ltl f))
  | Interned.And (p, q) -> ob_and (progress eval p) (progress eval q)
  | Interned.Or (p, q) -> ob_or (progress eval p) (progress eval q)
  | Interned.Next_n (1, p) -> formula p
  | Interned.Next_n (n, p) -> formula (Interned.next_n (n - 1) p)
  | Interned.Next_event (ne, p) -> at ne.Ltl.eps p
  | Interned.Until (p, q) ->
    ob_or (progress eval q) (ob_and (progress eval p) (formula f))
  | Interned.Release (p, q) ->
    ob_and (progress eval q) (ob_or (progress eval p) (formula f))
  | Interned.Always p -> ob_and (progress eval p) (formula f)
  | Interned.Eventually p -> ob_or (progress eval p) (formula f)

(* Structural step by [dt] ns without memoization (used to compute
   misses).  A wait still ahead shrinks by [dt], one due now
   progresses its operand, and one skipped past fails. *)
let rec compute ~dt eval ob =
  match ob.onode with
  | OTrue | OFalse -> ob
  | OFormula f -> progress eval f
  | OAt (remaining, f) ->
    if remaining > dt then at (remaining - dt) f
    else if remaining = dt then progress eval f
    else ob_false
  | OAnd (a, b) -> ob_and (compute ~dt eval a) (compute ~dt eval b)
  | OOr (a, b) -> ob_or (compute ~dt eval a) (compute ~dt eval b)

exception Too_many_atoms

(* Memoized step through one row of [ob]'s memo.  The hot path — a
   row already carrying its transition table — costs one atom-
   evaluation pass to pack the valuation bits and one array load
   (dense rows) or exception-based hashtable probe (wider rows);
   nothing is allocated on a hit.  A first visit seeds the row
   through [install owner]: [ob] itself for a state without a wait,
   its [dt_row] otherwise. *)
let rec pack eval atoms i acc =
  if i >= Array.length atoms then acc
  else
    pack eval atoms (i + 1)
      (if eval (Array.unsafe_get atoms i) then acc lor (1 lsl i) else acc)

let step_row stats ~dt eval ob row owner install =
  match row with
  | Dense { atoms; successors } ->
    let bits = pack eval atoms 0 0 in
    let successor = Array.unsafe_get successors bits in
    if successor != no_successor then begin
      stats.hits <- stats.hits + 1;
      successor
    end
    else begin
      stats.misses <- stats.misses + 1;
      let successor = compute ~dt eval ob in
      stats.transitions <- stats.transitions + 1;
      Array.unsafe_set successors bits successor;
      successor
    end
  | Transitions { atoms; results } ->
    let bits = pack eval atoms 0 0 in
    (match Hashtbl.find results bits with
     | successor ->
       stats.hits <- stats.hits + 1;
       successor
     | exception Not_found ->
       stats.misses <- stats.misses + 1;
       let successor = compute ~dt eval ob in
       stats.transitions <- stats.transitions + 1;
       Hashtbl.add results bits successor;
       successor)
  | Unmemoizable ->
    stats.bypassed <- stats.bypassed + 1;
    compute ~dt eval ob
  | No_memo | Per_dt _ (* never a row *) ->
    (match ob.onode with
     | OTrue | OFalse -> ob
     | _ ->
       (* First visit: run the progression with a recording evaluator
          to discover the atom read-set, then seed the entry. *)
       stats.misses <- stats.misses + 1;
       let read : (int, int) Hashtbl.t = Hashtbl.create 8 in
       let order = ref [] in
       let count = ref 0 in
       let bits = ref 0 in
       let recording atom =
         let v = eval atom in
         let id = Interned.id atom in
         if not (Hashtbl.mem read id) then begin
           if !count >= max_memo_atoms then raise Too_many_atoms;
           Hashtbl.add read id !count;
           order := atom :: !order;
           if v then bits := !bits lor (1 lsl !count);
           incr count
         end;
         v
       in
       (match compute ~dt recording ob with
        | successor ->
          let atoms = Array.of_list (List.rev !order) in
          stats.transitions <- stats.transitions + 1;
          if !count <= max_dense_atoms then begin
            let successors = Array.make (1 lsl !count) no_successor in
            successors.(!bits) <- successor;
            install owner (Dense { atoms; successors })
          end
          else begin
            let results = Hashtbl.create 8 in
            Hashtbl.add results !bits successor;
            install owner (Transitions { atoms; results })
          end;
          successor
        | exception Too_many_atoms ->
          install owner Unmemoizable;
          stats.bypassed <- stats.bypassed + 1;
          compute ~dt eval ob))

let install_state ob entry = ob.memo <- entry
let install_dt_row r entry = r.row <- entry

let rec find_dt_row dt = function
  | [] -> raise Not_found
  | r :: rest -> if r.dt = dt then r else find_dt_row dt rest

(* A state holding a wait steps through its row for [dt], clamped to
   one past its horizon: every larger [dt] fails every wait and reads
   the same atoms, so it shares that row. *)
let step_atoms_in stats ~dt eval ob =
  if ob.horizon < 0 then step_row stats ~dt eval ob ob.memo ob install_state
  else begin
    let dt = if dt > ob.horizon then ob.horizon + 1 else dt in
    let rows =
      match ob.memo with
      | Per_dt rows -> rows
      | No_memo | Dense _ | Transitions _ | Unmemoizable -> []
    in
    let r =
      match find_dt_row dt rows with
      | r -> r
      | exception Not_found ->
        let r = { dt; row = No_memo } in
        ob.memo <- Per_dt (r :: rows);
        r
    in
    step_row stats ~dt eval ob r.row r install_dt_row
  end

(* A handle is the calling domain's live statistics record itself:
   grabbing it once per monitor step replaces the per-state (and
   per-counter-read) [Domain.DLS] lookups of the naive API with plain
   field accesses — the DLS get is ~10ns, which multiplied by every
   live state of every monitor at every instant was a measurable slice
   of the interned engine's hot path. *)
type handle = stats_record = {
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable transitions : int;
}

let handle () = (universe ()).ustats

type memo_row =
  | Unstepped
  | Dense_row of Interned.t array
  | Hashed_row of Interned.t array
  | Unmemoizable_row
  | Rows_per_dt

let memo_row ob =
  match ob.memo with
  | No_memo -> Unstepped
  | Dense { atoms; _ } -> Dense_row atoms
  | Transitions { atoms; _ } -> Hashed_row atoms
  | Unmemoizable -> Unmemoizable_row
  | Per_dt _ -> Rows_per_dt

let rec pp ppf ob =
  match ob.onode with
  | OTrue -> Format.pp_print_string ppf "T"
  | OFalse -> Format.pp_print_string ppf "F"
  | OFormula f -> Format.fprintf ppf "{%a}" Interned.pp f
  | OAt (remaining, f) -> Format.fprintf ppf "at[+%dns]{%a}" remaining Interned.pp f
  | OAnd (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | OOr (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
