(* Compile-at-elaboration pipeline.

   An [Elab.t] collects the design declaratively — typed signals,
   method processes with declared sensitivity and write sets, leaf
   components — and compiles it once, just before the first kernel
   step (a pre-run hook):

   - the signal→process dependency graph is built from the declared
     write sets and the sensitivity lists (edges run writer → sensitive
     process; clock-edge sensitivity makes a process a root);
   - the graph is levelized with Kahn's algorithm — a combinational
     cycle is an elaboration error, reported with the source positions
     the offending processes were registered at;
   - on the compiled engine, contiguous handler runs on each
     sensitivity event are fused into activation blocks.

   Registration itself is engine-neutral: the same declarative model
   runs unchanged on the classic engine, where levels and blocks are
   simply ignored. *)

type pos = string * int * int * int

type packed = Pack : 'a Signal.t -> packed

exception Cycle_error of string

let () =
  Printexc.register_printer (function
    | Cycle_error msg -> Some msg
    | _ -> None)

type sig_info = {
  si_uid : int;
  si_changed : Event.t;
}

type proc = {
  pr_name : string;
  pr_pos : pos option;
  pr_index : int;
  pr_sensitivity : Event.t list;
  pr_writes : int list;  (* signal uids *)
  pr_subs : (Event.t * int) list;  (* handler indices, for fused blocks *)
  pr_body : unit -> unit;  (* unwrapped body, for fused blocks *)
  mutable pr_level : int;
}

type t = {
  e_kernel : Kernel.t;
  mutable signals : sig_info list;  (* reversed registration order *)
  mutable procs : proc list;  (* reversed *)
  mutable components : string list;  (* reversed *)
  mutable n_procs : int;
  mutable done_ : bool;
  mutable levels : int;
}

let pos_string = function
  | Some (file, line, _, _) -> Printf.sprintf "%s:%d" file line
  | None -> "<no position>"

(* The static schedule: contiguous runs of this design's handlers on
   each sensitivity event collapse into one activation block, so a
   fire pushes a single action per run instead of one per process and
   the evaluation loop dispatches once per block.  The
   block replays the bodies in subscription order — the order the
   classic per-handler path schedules them in — and mirrors the
   evaluation loop's own bookkeeping: one activation count per body, a
   stop poll between bodies, and per-body crash containment when the
   run asks for it (labels are only maintained then; they are
   unobservable otherwise). *)
let activation_block k names bodies =
  let n = Array.length bodies in
  fun () ->
    if Kernel.containing k then begin
      let i = ref 0 in
      while !i < n && not (Kernel.stopping k) do
        if !i > 0 then Kernel.add_activation k;
        Kernel.set_label k (Array.unsafe_get names !i);
        (try (Array.unsafe_get bodies !i) () with e -> Kernel.record_crash k e);
        incr i
      done
    end
    else begin
      let i = ref 0 in
      while !i < n && not (Kernel.stopping k) do
        if !i > 0 then Kernel.add_activation k;
        (Array.unsafe_get bodies !i) ();
        incr i
      done
    end

let fuse_blocks t procs =
  (* Distinct sensitivity events, by physical identity (events embed
     closures, so they are not hashable or comparable). *)
  let events = ref [] in
  Array.iter
    (fun p ->
      List.iter
        (fun (ev, _) -> if not (List.memq ev !events) then events := ev :: !events)
        p.pr_subs)
    procs;
  List.iter
    (fun ev ->
      let subs = ref [] in
      Array.iter
        (fun p ->
          List.iter (fun (e, idx) -> if e == ev then subs := (idx, p) :: !subs) p.pr_subs)
        procs;
      let subs = List.sort (fun (a, _) (b, _) -> compare a b) !subs in
      (* Maximal runs of consecutive handler indices become blocks;
         handlers interleaved with foreign subscriptions stay where
         they are, preserving fire-time order exactly. *)
      let spans = ref [] in
      let rec runs = function
        | [] -> ()
        | (first, p) :: rest ->
          let members = ref [ p ] in
          let last = ref first in
          let rest = ref rest in
          let continue_ = ref true in
          while !continue_ do
            match !rest with
            | (idx, q) :: tail when idx = !last + 1 ->
              members := q :: !members;
              last := idx;
              rest := tail
            | _ -> continue_ := false
          done;
          let members = Array.of_list (List.rev !members) in
          let names = Array.map (fun p -> p.pr_name) members in
          let bodies = Array.map (fun p -> p.pr_body) members in
          spans :=
            ((first, !last), activation_block t.e_kernel names bodies) :: !spans;
          runs !rest
      in
      runs subs;
      Event.fuse ev (List.rev !spans))
    !events

let compile t =
  if not t.done_ then begin
    t.done_ <- true;
    let procs = Array.of_list (List.rev t.procs) in
    let signals = List.rev t.signals in
    let n = Array.length procs in
    (* Writer map: signal uid -> indices of the processes driving it. *)
    let writers = Hashtbl.create 16 in
    Array.iter
      (fun p -> List.iter (fun u -> Hashtbl.add writers u p.pr_index) p.pr_writes)
      procs;
    (* A sensitivity entry is a signal dependency iff it is some
       registered signal's value-change event; clock edges and plain
       events make the process a schedule root. *)
    let signal_of_event ev =
      List.find_opt (fun si -> si.si_changed == ev) signals
    in
    let succs = Array.make n [] in
    let indeg = Array.make n 0 in
    Array.iter
      (fun q ->
        List.iter
          (fun ev ->
            match signal_of_event ev with
            | None -> ()
            | Some si ->
              List.iter
                (fun w ->
                  (* Self-edges are register semantics (a process
                     re-reading the output it drives), not
                     combinational cycles. *)
                  if w <> q.pr_index then begin
                    succs.(w) <- q.pr_index :: succs.(w);
                    indeg.(q.pr_index) <- indeg.(q.pr_index) + 1
                  end)
                (Hashtbl.find_all writers si.si_uid))
          q.pr_sensitivity)
      procs;
    (* Kahn levelization. *)
    let queue = Queue.create () in
    Array.iter
      (fun p -> if indeg.(p.pr_index) = 0 then Queue.add p.pr_index queue)
      procs;
    let seen = ref 0 in
    let max_level = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      incr seen;
      List.iter
        (fun j ->
          if procs.(j).pr_level < procs.(i).pr_level + 1 then begin
            procs.(j).pr_level <- procs.(i).pr_level + 1;
            if procs.(j).pr_level > !max_level then max_level := procs.(j).pr_level
          end;
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then Queue.add j queue)
        succs.(i)
    done;
    if !seen < n then begin
      let stuck =
        List.filter (fun p -> indeg.(p.pr_index) > 0) (Array.to_list procs)
      in
      raise
        (Cycle_error
           (Printf.sprintf
              "Elab.compile: zero-delay combinational cycle through %d \
               process(es): %s"
              (List.length stuck)
              (String.concat ", "
                 (List.map
                    (fun p ->
                      Printf.sprintf "%s (registered at %s)" p.pr_name
                        (pos_string p.pr_pos))
                    stuck))))
    end;
    t.levels <- (if n = 0 then 0 else !max_level + 1);
    if Kernel.is_compiled t.e_kernel then fuse_blocks t procs
  end

let create kernel =
  let t =
    {
      e_kernel = kernel;
      signals = [];
      procs = [];
      components = [];
      n_procs = 0;
      done_ = false;
      levels = 0;
    }
  in
  Kernel.add_pre_run_hook kernel (fun () -> compile t);
  t

let kernel t = t.e_kernel

let register_signal t s =
  t.signals <- { si_uid = Signal.uid s; si_changed = Signal.changed s } :: t.signals

let signal_bool t ?(init = false) name =
  let s = Signal.create_bool t.e_kernel ~name init in
  register_signal t s;
  s

let signal_int t ?(init = 0) name =
  let s = Signal.create_int t.e_kernel ~name init in
  register_signal t s;
  s

let signal_int64 t ?(init = 0L) name =
  let s = Signal.create_int64 t.e_kernel ~name init in
  register_signal t s;
  s

let signal t ?equal ~init name =
  let s = Signal.create t.e_kernel ~name ?equal init in
  register_signal t s;
  s

let process t ~name ?pos ?(initialize = true) ~sensitivity ?(writes = [])
    body =
  if t.done_ then
    invalid_arg
      (Printf.sprintf "Elab.process: %s registered after compilation" name);
  let k = t.e_kernel in
  let wrapped () =
    Kernel.set_label k name;
    body ()
  in
  let subs = List.map (fun ev -> (ev, Event.subscribe ev wrapped)) sensitivity in
  if initialize then Kernel.schedule_now k wrapped;
  let uid_of (Pack s) = Signal.uid s in
  t.procs <-
    {
      pr_name = name;
      pr_pos = pos;
      pr_index = t.n_procs;
      pr_sensitivity = sensitivity;
      pr_writes = List.map uid_of writes;
      pr_subs = subs;
      pr_body = body;
      pr_level = 0;
    }
    :: t.procs;
  t.n_procs <- t.n_procs + 1

let component t name = t.components <- name :: t.components
let components t = List.rev t.components

let levels t =
  compile t;
  t.levels
