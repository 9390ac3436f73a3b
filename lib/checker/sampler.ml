open Tabv_psl

(* Shared evaluation-point sampler.

   All monitors attached to the same observation point (a socket's
   end-of-transaction stream, a clock edge) see the same environment
   at a given instant, so each distinct atomic proposition needs to be
   evaluated exactly once per instant — not once per live checker
   instance per monitor.  The sampler is that per-instant cache, and
   the pool's only window onto the DUV: it is created over the pool's
   resolver, compiles every atom once when a monitor registers it
   ({!Expr.compile}), and from then on samples by running closures —
   no signal name is looked up while the simulation runs.

   Sharing discipline: a sampler may be shared by every monitor whose
   evaluation points observe the same environment within one delta
   phase (signal updates in the simulator are delta-delayed, so values
   are stable while the handlers of one instant run).  Monitors
   sampling at different phases of the same instant (e.g. a grid
   wrapper vs. a strict transaction wrapper) should use separate
   samplers. *)

(* Cached values live inside the interned atom nodes themselves
   ({!Interned.set_sample}): each node carries one (stamp, value)
   pair, and the sampler owns a globally unique stamp per instant.  A
   cache hit is then one load and one integer compare — no hashtable
   on the hot path.  Stamps come from a process-global counter, so two
   samplers active at the same instant never mistake each other's
   values (they just overwrite the slot, which only costs a
   re-evaluation).

   The stamp counter is domain-local ([Domain.DLS]), matching the
   interning universe: stamps only need to be unique among the
   samplers of one domain because interned nodes — and hence the
   scratch slots the stamps tag — are confined to the domain that
   created them.  A sampler keeps its domain's counter from
   {!create} on, so a new instant costs no [Domain.DLS] lookup. *)

let stamp_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let next_stamp stamps =
  incr stamps;
  !stamps

type counters = {
  mutable queries : int;  (* atom evaluations requested *)
  mutable evals : int;  (* atom evaluations actually performed *)
}

type t = {
  resolve : Expr.resolver;
  stamps : int ref;  (* the creating domain's stamp counter *)
  mutable now : int;  (* instant of the cached values *)
  mutable stamp : int;  (* stamp tagging this sampler's values at [now] *)
  counts : counters;
  mutable atoms : Interned.t array;  (* registered, oldest first *)
  mutable compiled : (unit -> bool) array;  (* [compiled.(i)] samples [atoms.(i)] *)
  slot_of : (int, int) Hashtbl.t;  (* atom id -> index of its compiled closure *)
  mutable primed : int;  (* stamp the batch pass last ran for *)
  mutable complete : bool;  (* no atom raised during that pass *)
  mutable valuation : int;  (* that pass's valuation, or -1 *)
  evaluator : Interned.t -> bool;  (* the pool's one atom evaluator *)
}

(* Widest pool whose valuation fits one immediate int bitmask. *)
let max_valuation_atoms = 62

let refresh t ~time =
  if t.now <> time then begin
    t.now <- time;
    t.stamp <- next_stamp t.stamps
  end

(* Every registered atom evaluates through [run], so query/eval
   accounting is the same whether the value is produced by priming or
   by a cache miss. *)
let run t i =
  let atom = Array.unsafe_get t.atoms i in
  let v = (Array.unsafe_get t.compiled i) () in
  t.counts.evals <- t.counts.evals + 1;
  Interned.set_sample atom ~stamp:t.stamp ~value:v;
  v

(* A miss after priming means another sampler overwrote the atom's
   slot at this instant: re-run this pool's closure for that one atom. *)
let miss t atom =
  match Hashtbl.find_opt t.slot_of (Interned.id atom) with
  | Some i -> run t i
  | None -> invalid_arg "Sampler: atom not registered with this sampler"

let read t (atom : Interned.t) =
  t.counts.queries <- t.counts.queries + 1;
  if atom.sample_stamp = t.stamp then atom.sample_value else miss t atom

let create resolve =
  let stamps = Domain.DLS.get stamp_key in
  let rec t =
    {
      resolve;
      stamps;
      now = min_int;
      stamp = next_stamp stamps;
      counts = { queries = 0; evals = 0 };
      atoms = [||];
      compiled = [||];
      slot_of = Hashtbl.create 16;
      primed = 0;
      complete = true;
      valuation = -1;
      evaluator = (fun atom -> read t atom);
    }
  in
  t

(* Registration happens when a monitor is created, never while the
   simulation runs, so growing the arrays by one is cheap enough. *)
let register t atom =
  if not (Hashtbl.mem t.slot_of (Interned.id atom)) then
    match Interned.node atom with
    | Interned.Atom e ->
      Hashtbl.add t.slot_of (Interned.id atom) (Array.length t.atoms);
      t.atoms <- Array.append t.atoms [| atom |];
      t.compiled <- Array.append t.compiled [| Expr.compile t.resolve e |]
    | _ -> invalid_arg "Sampler.register: not an atom node"

(* Batched sampling: monitors register their atom sets at creation and
   the pool primes the sampler once per instant (a plain
   [Monitor.step] primes too), so the environment (signals or
   transaction mirror) is read in one pass per instant and every
   monitor's step is answered from the cache.  Newest registrations
   are sampled first.  An atom that raises is left unstamped and the
   pass goes on: its error resurfaces, through [miss], in exactly the
   steps that read it.  The pass also packs the pool's valuation, bit
   [i] for atom [i]; a later prime at the same instant returns it
   again while every slot still holds this pass's value, so each
   monitor of a pool that primes per monitor (a grid pool) gets it. *)
let rec stamped t i =
  i < 0 || ((Array.unsafe_get t.atoms i).Interned.sample_stamp = t.stamp && stamped t (i - 1))

let prime_valuation t ~time =
  refresh t ~time;
  if t.primed = t.stamp then
    if t.valuation >= 0 && stamped t (Array.length t.atoms - 1) then t.valuation else -1
  else begin
    t.primed <- t.stamp;
    t.complete <- true;
    let bits = ref 0 in
    for i = Array.length t.atoms - 1 downto 0 do
      t.counts.queries <- t.counts.queries + 1;
      let atom : Interned.t = Array.unsafe_get t.atoms i in
      if atom.sample_stamp <> t.stamp then begin
        match run t i with
        | true -> bits := !bits lor (1 lsl i)
        | false -> ()
        | exception _ -> t.complete <- false
      end
      else if atom.sample_value then bits := !bits lor (1 lsl i)
    done;
    t.valuation <-
      (if t.complete && Array.length t.atoms <= max_valuation_atoms then !bits else -1);
    t.valuation
  end

let prime t ~time = ignore (prime_valuation t ~time)
let complete t = t.complete

let mask t atom =
  match Hashtbl.find_opt t.slot_of (Interned.id atom) with
  | Some i when i < max_valuation_atoms -> 1 lsl i
  | Some _ | None -> 0

let evaluator t = t.evaluator
let counters t = t.counts
let queries t = t.counts.queries
let evals t = t.counts.evals

let hit_rate t =
  let { queries; evals } = t.counts in
  if queries = 0 then 0. else float_of_int (queries - evals) /. float_of_int queries
