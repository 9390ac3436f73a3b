(* Elaboration-time design check.

   An [Elab.t] collects the design declaratively — typed signals,
   method processes with declared sensitivity and write sets, leaf
   components — and compiles it once, just before the first kernel
   step (a pre-run hook):

   - the signal→process dependency graph is built from the declared
     write sets and the sensitivity lists (edges run writer → sensitive
     process; clock-edge sensitivity makes a process a root);
   - the graph is levelized with Kahn's algorithm — a combinational
     cycle is an elaboration error, reported with the source positions
     the offending processes were registered at. *)

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
    t.levels <- (if n = 0 then 0 else !max_level + 1)
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
  Process.method_process t.e_kernel ~name ~initialize ~sensitivity body;
  let uid_of (Pack s) = Signal.uid s in
  t.procs <-
    {
      pr_name = name;
      pr_pos = pos;
      pr_index = t.n_procs;
      pr_sensitivity = sensitivity;
      pr_writes = List.map uid_of writes;
      pr_level = 0;
    }
    :: t.procs;
  t.n_procs <- t.n_procs + 1

let component t name = t.components <- name :: t.components
let components t = List.rev t.components

let levels t =
  compile t;
  t.levels
