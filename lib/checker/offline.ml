open Tabv_psl
module Reader = Tabv_trace.Reader

(* One fresh monitor per property, sharing one sampler, and the pool's
   valuation at the last sample it primed for. *)
type pool = {
  sampler : Sampler.t;
  monitors : Monitor.t list;
  mutable valuation : int;
}

let pool resolve properties =
  let sampler = Sampler.create resolve in
  { sampler;
    monitors = List.map (fun p -> Monitor.create ~sampler p) properties;
    valuation = -1
  }

(* The one per-sample step of every offline path.  A sample that
   changed no value holds the values of the last one, so its valuation
   stands and it reads the last prime's stamps ([Monitor.advance] never
   primes); otherwise the sampler is primed once.  Every monitor then
   advances (replays or steps).  Until a sample changes a value the
   valuation stays unknown, and every monitor takes a plain step,
   which primes. *)
let step pool ~time ~changed =
  if changed then pool.valuation <- Sampler.prime_valuation pool.sampler ~time;
  let valuation = pool.valuation in
  List.iter (fun m -> Monitor.advance m ~time ~valuation) pool.monitors

let over_seq properties entries =
  (* The current sample's env: the pool's sampler resolves every
     signal through it.  The same env list again holds the same
     values; the initial env is empty. *)
  let env = ref [] in
  let pool = pool (Expr.env_resolver env) properties in
  Seq.iter
    (function
      | Tabv_trace.Entry.Span _ -> ()
      | Tabv_trace.Entry.Sample { time; env = sample } ->
        let changed = sample != !env in
        env := sample;
        step pool ~time ~changed)
    entries;
  pool.monitors

let over_trace properties trace =
  over_seq properties (Tabv_trace.Entry.of_trace trace)

(* Each signal resolves once, at compile time, to its dictionary slot:
   an atom read is then one array load. *)
let slot_resolver names values name =
  let rec find i =
    if i >= Array.length names then None
    else if String.equal names.(i) name then
      Some (fun () -> Array.unsafe_get values i)
    else find (i + 1)
  in
  find 0

let over_reader properties reader =
  let names = Array.of_list (Reader.dictionary reader) in
  let pool = pool (slot_resolver names (Reader.values reader)) properties in
  let rec go () =
    match Reader.step reader with
    | Reader.Changed ->
      step pool ~time:(Reader.time reader) ~changed:true;
      go ()
    | Reader.Unchanged ->
      step pool ~time:(Reader.time reader) ~changed:false;
      go ()
    | Reader.End -> ()
  in
  go ();
  pool.monitors

let over_file properties path = Reader.with_file path (over_reader properties)

let snapshots monitors = List.map Monitor.snapshot monitors
