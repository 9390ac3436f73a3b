(* The model catalog: every DUV x level the tool can drive, as one
   first-class enumeration, with the facts every entry point shares.

   `tabv check` / `record` / `recheck`, campaigns, qualification runs
   and the `tabv serve` request handler must agree on everything that
   shapes a run — the model names, the interface signals a property may
   mention, which property set a run attaches (including the
   Methodology III.1 abstraction on the approximately-timed models) and
   which model value drives it — because the byte-identity contracts
   (record+recheck == live check; served report == one-shot CLI report;
   campaign job == one-shot check) depend on every path building runs
   identically.  This module is that single spec. *)

open Tabv_psl

type duv =
  | Des56
  | Colorconv
  | Memctrl

type level =
  | Rtl
  | Tlm_ca
  | Tlm_at
  | Tlm_lt

type t =
  | Des56_rtl
  | Des56_ca
  | Des56_at
  | Des56_lt
  | Colorconv_rtl
  | Colorconv_ca
  | Colorconv_at
  | Memctrl_rtl
  | Memctrl_ca
  | Memctrl_at

let duv_names = [ ("des56", Des56); ("colorconv", Colorconv); ("memctrl", Memctrl) ]

let level_names =
  [ ("rtl", Rtl); ("tlm-ca", Tlm_ca); ("tlm-at", Tlm_at); ("tlm-lt", Tlm_lt) ]

let name_of names v = fst (List.find (fun (_, x) -> x = v) names)
let duv_name = name_of duv_names
let level_name = name_of level_names
let duv_of_name n = List.assoc_opt n duv_names
let level_of_name n = List.assoc_opt n level_names

let duv_of = function
  | Des56_rtl | Des56_ca | Des56_at | Des56_lt -> Des56
  | Colorconv_rtl | Colorconv_ca | Colorconv_at -> Colorconv
  | Memctrl_rtl | Memctrl_ca | Memctrl_at -> Memctrl

let level_of = function
  | Des56_rtl | Colorconv_rtl | Memctrl_rtl -> Rtl
  | Des56_ca | Colorconv_ca | Memctrl_ca -> Tlm_ca
  | Des56_at | Colorconv_at | Memctrl_at -> Tlm_at
  | Des56_lt -> Tlm_lt

let all =
  [ Des56_rtl; Des56_ca; Des56_at; Des56_lt; Colorconv_rtl; Colorconv_ca;
    Colorconv_at; Memctrl_rtl; Memctrl_ca; Memctrl_at ]

(* The loosely-timed level exists only for DES56: [t] has no other LT
   constructor, so this is [None] exactly there. *)
let of_duv_level duv level =
  List.find_opt (fun m -> duv_of m = duv && level_of m = level) all

let name model = duv_name (duv_of model) ^ "-" ^ level_name (level_of model)
let names = List.map (fun m -> (name m, m)) all
let of_name n = List.assoc_opt n names

(* Every catalog entry as its model value and its seeded workload. *)
type entry =
  | Entry : 'w Testbench.model * (seed:int -> ops:int -> 'w) -> entry

let des56 ~seed ~ops = Workload.des56 ~seed ~count:ops ()
let colorconv ~seed ~ops = Workload.colorconv ~seed ~count:ops ()
let memctrl ~seed ~ops = Workload.memctrl ~seed ~count:ops ()

let entry = function
  | Des56_rtl -> Entry (Testbench.des56_rtl (), des56)
  | Des56_ca -> Entry (Testbench.des56_tlm_ca, des56)
  | Des56_at -> Entry (Testbench.des56_tlm_at (), des56)
  | Des56_lt -> Entry (Testbench.des56_tlm_lt, des56)
  | Colorconv_rtl -> Entry (Testbench.colorconv_rtl, colorconv)
  | Colorconv_ca -> Entry (Testbench.colorconv_tlm_ca, colorconv)
  | Colorconv_at -> Entry (Testbench.colorconv_tlm_at, colorconv)
  | Memctrl_rtl -> Entry (Testbench.memctrl_rtl, memctrl)
  | Memctrl_ca -> Entry (Testbench.memctrl_tlm_ca, memctrl)
  | Memctrl_at -> Entry (Testbench.memctrl_tlm_at (), memctrl)

let socket model =
  let (Entry (m, _)) = entry model in
  m.Testbench.socket

let run r model ~seed ~ops =
  let (Entry (m, workload)) = entry model in
  Testbench.run r m (workload ~seed ~ops)

let known_signals model =
  match duv_of model with
  | Des56 -> Des56_iface.signal_names
  | Colorconv -> Colorconv_iface.signal_names
  | Memctrl -> Memctrl_iface.signal_names

let check_signals model properties =
  let known = known_signals model in
  match Property.missing_signals ~known properties with
  | [] -> Ok ()
  | missing ->
    Error
      (Printf.sprintf "model %s has no signal(s) %s — mismatched property set"
         (name model) (String.concat ", " missing))

let check_ops ops =
  if ops > 0 then Ok ()
  else Error (Printf.sprintf "ops must be positive (got %d)" ops)

(* Split the automatically-safe abstractions into strict-wrapper
   properties and grid-wrapper ones (timed operators under
   until/release need the full clock grid). *)
let abstract_for_at ~abstracted_signals properties =
  let reports =
    Tabv_core.Methodology.abstract_all ~clock_period:10 ~abstracted_signals
      properties
  in
  List.fold_left
    (fun (strict, grid) r ->
      match r.Tabv_core.Methodology.output with
      | Some q when not r.Tabv_core.Methodology.requires_review ->
        if Tabv_core.Methodology.needs_dense_trace q.Property.formula then
          (strict, q :: grid)
        else (q :: strict, grid)
      | Some _ | None -> (strict, grid))
    ([], []) reports
  |> fun (strict, grid) -> (List.rev strict, List.rev grid)

let abstracted_signals = function
  | Des56 -> Des56_props.abstracted_signals
  | Colorconv -> Colorconv_props.abstracted_signals
  | Memctrl -> Memctrl_props.abstracted_signals

(* The property sets a run actually attaches for [model], given the
   optional user property set: [(properties, grid_properties)] in
   attach (= report) order.  A user set is reused unabstracted at RTL
   and TLM-CA and abstracted (Methodology III.1) above. *)
let properties_for model user =
  let duv = duv_of model in
  let abstract = abstract_for_at ~abstracted_signals:(abstracted_signals duv) in
  match level_of model, user with
  | (Rtl | Tlm_ca), Some properties -> (properties, [])
  | (Rtl | Tlm_ca), None ->
    ( (match duv with
       | Des56 -> Des56_props.all
       | Colorconv -> Colorconv_props.all
       | Memctrl -> Memctrl_props.all),
      [] )
  | Tlm_at, None ->
    ( (match duv with
       | Des56 -> Des56_props.tlm_reviewed ()
       | Colorconv -> Colorconv_props.tlm_reviewed ()
       | Memctrl -> Memctrl_props.tlm_auto_safe ()),
      [] )
  | Tlm_at, Some properties when duv = Memctrl ->
    (* The MemCtrl TLM-AT model has no grid pool. *)
    (fst (abstract properties), [])
  | Tlm_at, Some properties -> abstract properties
  (* Boolean invariants only at TLM-LT: the model is not timing
     equivalent (Theorem III.2's precondition), so timed abstracted
     properties would fail by design. *)
  | Tlm_lt, None ->
    ( [ Property.make ~name:"lt_inv"
          ~context:(Context.Transaction Context.Base_trans)
          (Parser.formula_only "always(!rdy || ds)") ],
      [] )
  | Tlm_lt, Some properties ->
    ( List.filter
        (fun p -> Simple_subset.is_boolean p.Property.formula)
        (fst (abstract properties)),
      [] )

(* The LT model records nothing: it exists to violate timing
   equivalence, so a trace of it would not replay meaningfully. *)
let supports_trace model = level_of model <> Tlm_lt

let ( let* ) = Result.bind

type props = unit -> ((string * Property.t list) option, string) result

(* The caller's property source, judged against [model]: a set naming
   a signal the model lacks is refused, prefixed with the source's
   name. *)
let user_properties model props =
  let* user = props () in
  match user with
  | None -> Ok None
  | Some (source, properties) ->
    (match check_signals model properties with
     | Ok () -> Ok (Some properties)
     | Error message -> Error (source ^ ": " ^ message))

(* The admission policy and run of one check or record job, for every
   entry point: the refusals in order (ops, the user's properties,
   recordability), then the trace and the run.  A trace that cannot be
   opened, written or synced raises [Io_error] for the caller to word. *)
let simulate ~metrics ~trace_out model ~seed ~ops ~props =
  let* () = check_ops ops in
  let* user = user_properties model props in
  let* () =
    match trace_out with
    | Some _ when not (supports_trace model) ->
      Error
        (Printf.sprintf
           "%s records no trace (the loosely-timed model is deliberately \
            not timing equivalent, so a recording would not replay \
            meaningfully)"
           (name model))
    | Some _ | None -> Ok ()
  in
  let properties, grid_properties = properties_for model user in
  let writer =
    Option.map
      (fun path ->
        Tabv_trace.Writer.create ~path
          (Tabv_trace.Meta.make ~model:(name model) ~seed ~ops))
      trace_out
  in
  let result =
    Tabv_trace.Writer.protect writer (fun () ->
        run
          { Testbench.default with
            properties; grid_properties; metrics; trace_writer = writer }
          model ~seed ~ops)
  in
  Ok (result, writer)

(* The deterministic verdict report of one run: run identification
   plus per-property counters in attach order.  `recheck` builds the
   same document from the trace meta + merged snapshots; the serve
   daemon from a warm or cold execution — all must be byte-identical
   to the live one-shot check. *)
let verdict_report model ~seed ~ops result =
  let open Tabv_core.Report_json in
  verdict_report_json
    ~run:
      [ ("model", String (name model)); ("seed", Int seed); ("ops", Int ops) ]
    ~properties:result.Testbench.checker_stats ()
