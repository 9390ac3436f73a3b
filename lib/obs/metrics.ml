(* Metrics registry: named counters, gauges, histograms, probes and
   phase timers with a deterministic snapshot order.

   Design constraints (see DESIGN.md "Observability"):

   - zero dependencies: the registry lives below every other library
     in the repo so the simulation kernel, the checker engine, and the
     report emitters can all share one currency for runtime statistics;

   - near-zero cost when disabled: every push-style instrument
     (counter/gauge/histogram/timer) carries a shared [enabled] ref
     and its update is a single load-and-branch when the registry is
     off.  Pull-style probes cost nothing on the hot path by
     construction — they are only evaluated when a snapshot is taken;

   - deterministic snapshots: [snapshot] sorts by instrument name and
     contains only simulation-derived integers, never wall-clock
     values.  Two runs with the same seed therefore produce
     byte-identical snapshots.  Timers (which do read a real clock)
     are reported separately by [timers] and are excluded from
     [snapshot] on purpose. *)

type counter = {
  mutable c : int;
  c_on : bool ref;
}

type gauge = {
  mutable g : int;
  g_on : bool ref;
}

(* Power-of-two value histogram: bucket [i] counts observations [v]
   with [bits v = i] (bucket 0 holds v <= 0... 1).  63 buckets cover
   the whole positive [int] range; the summary only reports non-empty
   buckets, keyed by the exclusive upper bound [2^i]. *)
type histogram = {
  mutable n : int;
  mutable sum : int;
  mutable lo : int;
  mutable hi : int;
  buckets : int array;
  h_on : bool ref;
}

type timer = {
  mutable total : float;  (* accumulated seconds *)
  mutable t0 : float;
  mutable running : bool;
  mutable laps : int;
  t_on : bool ref;
  t_timing : bool ref;  (* a clock has been installed *)
  t_clock : (unit -> float) ref;
}

type combine =
  [ `Sum
  | `Max
  ]

type probe = {
  combine : combine;
  mutable sources : (unit -> int) list;  (* registration order, reversed *)
}

type instrument =
  | Counter_i of counter
  | Gauge_i of gauge
  | Histogram_i of histogram
  | Probe_i of probe

type t = {
  on : bool ref;
  instruments : (string, instrument) Hashtbl.t;
  timer_tbl : (string, timer) Hashtbl.t;
  timing : bool ref;
  clock : (unit -> float) ref;
}

(* Timers are off until a clock is installed: reading a wall clock
   (e.g. [Sys.time], a [times(2)] syscall) on a hot path such as the
   kernel's phase loop costs orders of magnitude more than the
   branch-guarded counters, so wall-clock sampling is a separate
   opt-in on top of [enabled]. *)
let create ?(enabled = true) () =
  {
    on = ref enabled;
    instruments = Hashtbl.create 32;
    timer_tbl = Hashtbl.create 8;
    timing = ref false;
    clock = ref (fun () -> 0.);
  }

let disabled () = create ~enabled:false ()
let enabled t = !(t.on)
let set_enabled t flag = t.on := flag
let enabled_flag t = t.on

let set_clock t clock =
  t.clock := clock;
  t.timing := true

let timing t = !(t.timing)

let kind_name = function
  | Counter_i _ -> "counter"
  | Gauge_i _ -> "gauge"
  | Histogram_i _ -> "histogram"
  | Probe_i _ -> "probe"

let mismatch name ~want found =
  invalid_arg
    (Printf.sprintf "Metrics: %S is registered as a %s, not a %s" name
       (kind_name found) want)

let register t name make project want =
  match Hashtbl.find_opt t.instruments name with
  | Some found ->
    (match project found with
     | Some instrument -> instrument
     | None -> mismatch name ~want found)
  | None ->
    let fresh = make () in
    Hashtbl.replace t.instruments name fresh;
    (match project fresh with
     | Some instrument -> instrument
     | None -> assert false)

(* --- counters ------------------------------------------------------- *)

let counter t name =
  register t name
    (fun () -> Counter_i { c = 0; c_on = t.on })
    (function Counter_i c -> Some c | _ -> None)
    "counter"

let incr c = if !(c.c_on) then c.c <- c.c + 1
let add c n = if !(c.c_on) then c.c <- c.c + n
let counter_value c = c.c

(* --- gauges --------------------------------------------------------- *)

let gauge t name =
  register t name
    (fun () -> Gauge_i { g = 0; g_on = t.on })
    (function Gauge_i g -> Some g | _ -> None)
    "gauge"

let set g v = if !(g.g_on) then g.g <- v
let record_max g v = if !(g.g_on) && v > g.g then g.g <- v
let gauge_value g = g.g

(* --- histograms ----------------------------------------------------- *)

let histogram t name =
  register t name
    (fun () ->
      Histogram_i
        { n = 0; sum = 0; lo = max_int; hi = min_int;
          buckets = Array.make 63 0; h_on = t.on })
    (function Histogram_i h -> Some h | _ -> None)
    "histogram"

let bucket_index v =
  if v <= 1 then 0
  else begin
    (* index of the highest set bit of [v - 1], + 1: values in
       (2^(i-1), 2^i] land in bucket i. *)
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits (v - 1) 0
  end

let observe h v =
  if !(h.h_on) then begin
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v;
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1
  end

(* --- probes --------------------------------------------------------- *)

let probe t ?(combine = `Sum) name source =
  let p =
    register t name
      (fun () -> Probe_i { combine; sources = [] })
      (function Probe_i p -> Some p | _ -> None)
      "probe"
  in
  if p.combine <> combine then
    invalid_arg
      (Printf.sprintf "Metrics.probe: %S already registered with another combiner"
         name);
  p.sources <- source :: p.sources

(* --- timers --------------------------------------------------------- *)

let timer t name =
  match Hashtbl.find_opt t.timer_tbl name with
  | Some timer -> timer
  | None ->
    let fresh =
      { total = 0.; t0 = 0.; running = false; laps = 0; t_on = t.on;
        t_timing = t.timing; t_clock = t.clock }
    in
    Hashtbl.replace t.timer_tbl name fresh;
    fresh

let start tm =
  if !(tm.t_timing) && !(tm.t_on) && not tm.running then begin
    tm.running <- true;
    tm.t0 <- !(tm.t_clock) ()
  end

let stop tm =
  if tm.running then begin
    tm.running <- false;
    tm.total <- tm.total +. (!(tm.t_clock) () -. tm.t0);
    tm.laps <- tm.laps + 1
  end

let time tm f =
  start tm;
  Fun.protect ~finally:(fun () -> stop tm) f

let timer_seconds tm = tm.total
let timer_laps tm = tm.laps

(* --- snapshots ------------------------------------------------------ *)

type histogram_summary = {
  count : int;
  sum : int;
  min_value : int;  (* 0 when empty *)
  max_value : int;  (* 0 when empty *)
  by_upper_bound : (int * int) list;  (* (exclusive 2^i bound, count) *)
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_summary

let summarize h =
  let by_upper_bound = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then
      by_upper_bound := (1 lsl i, h.buckets.(i)) :: !by_upper_bound
  done;
  {
    count = h.n;
    sum = h.sum;
    min_value = (if h.n = 0 then 0 else h.lo);
    max_value = (if h.n = 0 then 0 else h.hi);
    by_upper_bound = !by_upper_bound;
  }

let eval_probe p =
  match p.combine with
  | `Sum -> List.fold_left (fun acc f -> acc + f ()) 0 p.sources
  (* [probe] registers a name with its first source, so [min_int] is
     never the answer; a peak may be negative. *)
  | `Max -> List.fold_left (fun acc f -> max acc (f ())) min_int p.sources

let value_of = function
  | Counter_i c -> Counter c.c
  | Gauge_i g -> Gauge g.g
  | Histogram_i h -> Histogram (summarize h)
  | Probe_i p -> Gauge (eval_probe p)

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold (fun name i acc -> (name, value_of i) :: acc) t.instruments []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- snapshot merging ----------------------------------------------- *)

(* Combining two runs' worth of statistics follows the nature of each
   instrument: counters and histogram populations are additive, gauges
   (and probes, which snapshot as gauges) track peaks so they combine
   with [max].  Merging is name-aligned over the sorted snapshot order,
   so the result is itself a well-formed (sorted, deterministic)
   snapshot — the campaign runner folds per-job snapshots into one
   aggregate with byte-identical JSON regardless of job placement. *)

let merge_histogram (a : histogram_summary) (b : histogram_summary) =
  let rec merge_buckets xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | (bx, cx) :: tx, (by, cy) :: ty ->
      if bx = by then (bx, cx + cy) :: merge_buckets tx ty
      else if bx < by then (bx, cx) :: merge_buckets tx ys
      else (by, cy) :: merge_buckets xs ty
  in
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      min_value = min a.min_value b.min_value;
      max_value = max a.max_value b.max_value;
      by_upper_bound = merge_buckets a.by_upper_bound b.by_upper_bound;
    }

let merge_value name a b =
  match a, b with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (max x y)
  | Histogram x, Histogram y -> Histogram (merge_histogram x y)
  | (Counter _ | Gauge _ | Histogram _), _ ->
    invalid_arg
      (Printf.sprintf "Metrics.merge: %S has mismatched kinds" name)

let merge (a : snapshot) (b : snapshot) : snapshot =
  (* Tolerate unsorted input (snapshots from [snapshot] are already
     sorted; hand-built ones may not be). *)
  let sort s = List.sort (fun (x, _) (y, _) -> compare x y) s in
  let rec go xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | (nx, vx) :: tx, (ny, vy) :: ty ->
      if nx = ny then (nx, merge_value nx vx vy) :: go tx ty
      else if nx < ny then (nx, vx) :: go tx ys
      else (ny, vy) :: go xs ty
  in
  go (sort a) (sort b)

let merge_all = function
  | [] -> []
  | first :: rest -> List.fold_left merge first rest

let find t name = Option.map value_of (Hashtbl.find_opt t.instruments name)

let timers t =
  Hashtbl.fold (fun name tm acc -> (name, tm.total, tm.laps) :: acc) t.timer_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let reset t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter_i c -> c.c <- 0
      | Gauge_i g -> g.g <- 0
      | Histogram_i h ->
        h.n <- 0;
        h.sum <- 0;
        h.lo <- max_int;
        h.hi <- min_int;
        Array.fill h.buckets 0 (Array.length h.buckets) 0
      | Probe_i _ -> ())
    t.instruments;
  Hashtbl.iter
    (fun _ tm ->
      tm.total <- 0.;
      tm.laps <- 0;
      tm.running <- false)
    t.timer_tbl

(* --- printing ------------------------------------------------------- *)

let pp_value ppf = function
  | Counter n -> Format.fprintf ppf "%d" n
  | Gauge n -> Format.fprintf ppf "%d" n
  | Histogram h ->
    Format.fprintf ppf "count=%d sum=%d min=%d max=%d" h.count h.sum h.min_value
      h.max_value

let pp_snapshot ppf snapshot =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-36s %a@." name pp_value v)
    snapshot
