type result =
  | Holds
  | Counterexample of Trace.t

(* Trace entry environments: one per subset of true signals. *)
let all_envs signals =
  let k = List.length signals in
  List.init (1 lsl k) (fun bits ->
    List.mapi (fun i name -> (name, Expr.VBool (bits land (1 lsl i) <> 0))) signals)

(* Depth-first enumeration of traces of exactly [len] entries. *)
let rec enumerate envs len prefix k =
  if len = 0 then k (List.rev prefix)
  else
    List.for_all (fun env -> enumerate envs (len - 1) (env :: prefix) k) envs

let forall ~signals ~max_depth predicate =
  if List.length signals > 4 then
    invalid_arg "Exhaustive.forall: too many signals (max 4)";
  if max_depth > 8 then invalid_arg "Exhaustive.forall: depth too large (max 8)";
  let envs = all_envs signals in
  let witness = ref None in
  let ok =
    List.for_all
      (fun len ->
        enumerate envs len [] (fun entries ->
          let trace = Trace.cycle_trace ~period:10 entries in
          if predicate trace then true
          else begin
            witness := Some trace;
            false
          end))
      (List.init max_depth (fun i -> i + 1))
  in
  if ok then Holds
  else
    match !witness with
    | Some trace -> Counterexample trace
    | None -> assert false

let equivalent ~signals ~max_depth f g =
  forall ~signals ~max_depth (fun trace ->
    Semantics.equal_verdict (Semantics.eval trace f) (Semantics.eval trace g))

let implies ~signals ~max_depth f g =
  forall ~signals ~max_depth (fun trace ->
    Semantics.eval trace f = Semantics.False
    || Semantics.eval trace g <> Semantics.False)

