(* The built-in DUV model catalog as one first-class enumeration.

   `tabv check` / `record` / `recheck` and the `tabv serve` request
   handler must agree on everything that shapes a run — the model
   names, the interface signals a property may mention, which property
   set a run attaches (including the Methodology III.1 abstraction on
   the approximately-timed models) and which testbench entry point
   drives it — because the byte-identity contracts (record+recheck ==
   live check; served report == one-shot CLI report) depend on the two
   paths building runs identically.  This module is that single
   spec; [bin/cli.ml] and [lib/serve] are both thin clients of it. *)

open Tabv_psl

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

let names =
  [ ("des56-rtl", Des56_rtl); ("des56-tlm-ca", Des56_ca);
    ("des56-tlm-at", Des56_at); ("des56-tlm-lt", Des56_lt);
    ("colorconv-rtl", Colorconv_rtl); ("colorconv-tlm-ca", Colorconv_ca);
    ("colorconv-tlm-at", Colorconv_at); ("memctrl-rtl", Memctrl_rtl);
    ("memctrl-tlm-ca", Memctrl_ca); ("memctrl-tlm-at", Memctrl_at) ]

let name model = fst (List.find (fun (_, m) -> m = model) names)
let of_name n = List.assoc_opt n names

let known_signals = function
  | Des56_rtl | Des56_ca | Des56_at | Des56_lt -> Des56_iface.signal_names
  | Colorconv_rtl | Colorconv_ca | Colorconv_at -> Colorconv_iface.signal_names
  | Memctrl_rtl | Memctrl_ca | Memctrl_at -> Memctrl_iface.signal_names

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

(* The property sets a run actually attaches for [model], given the
   optional user property set: [(properties, grid_properties)] in
   attach (= report) order. *)
let properties_for model user =
  let rtl_or builtin =
    match user with
    | Some properties -> properties
    | None -> builtin
  in
  match model with
  | Des56_rtl | Des56_ca -> (rtl_or Des56_props.all, [])
  | Des56_at ->
    (match user with
     | Some properties ->
       abstract_for_at ~abstracted_signals:Des56_props.abstracted_signals
         properties
     | None -> (Des56_props.tlm_reviewed (), []))
  | Des56_lt ->
    (* Boolean invariants only: the LT model is not timing equivalent,
       timed properties would fail by design. *)
    (match user with
     | Some properties ->
       ( List.filter
           (fun p -> Simple_subset.is_boolean p.Property.formula)
           (fst
              (abstract_for_at
                 ~abstracted_signals:Des56_props.abstracted_signals properties)),
         [] )
     | None ->
       ( [ Property.make ~name:"lt_inv"
             ~context:(Context.Transaction Context.Base_trans)
             (Parser.formula_only "always(!rdy || ds)") ],
         [] ))
  | Colorconv_rtl | Colorconv_ca -> (rtl_or Colorconv_props.all, [])
  | Colorconv_at ->
    (match user with
     | Some properties ->
       abstract_for_at ~abstracted_signals:Colorconv_props.abstracted_signals
         properties
     | None -> (Colorconv_props.tlm_reviewed (), []))
  | Memctrl_rtl | Memctrl_ca -> (rtl_or Memctrl_props.all, [])
  | Memctrl_at ->
    (match user with
     | Some properties ->
       ( fst
           (abstract_for_at
              ~abstracted_signals:Memctrl_props.abstracted_signals properties),
         [] )
     | None -> (Memctrl_props.tlm_auto_safe (), []))

(* Drive [model] over its seeded workload with [properties] attached
   (and, on the AT models, [grid_properties] under the grid wrapper).
   [trace_writer] taps the checker evaluation points into a binary
   trace. *)
let run ?metrics ?trace_writer model ~seed ~ops ~properties
    ~grid_properties =
  match model with
  | Des56_rtl ->
    Testbench.run_des56_rtl ?metrics ?trace_writer ~properties
      (Workload.des56 ~seed ~count:ops ())
  | Des56_ca ->
    Testbench.run_des56_tlm_ca ?metrics ?trace_writer ~properties
      (Workload.des56 ~seed ~count:ops ())
  | Des56_at ->
    Testbench.run_des56_tlm_at ?metrics ?trace_writer ~properties
      ~grid_properties
      (Workload.des56 ~seed ~count:ops ())
  | Des56_lt ->
    Testbench.run_des56_tlm_lt ?metrics ~properties
      (Workload.des56 ~seed ~count:ops ())
  | Colorconv_rtl ->
    Testbench.run_colorconv_rtl ?metrics ?trace_writer ~properties
      (Workload.colorconv ~seed ~count:ops ())
  | Colorconv_ca ->
    Testbench.run_colorconv_tlm_ca ?metrics ?trace_writer
      ~properties
      (Workload.colorconv ~seed ~count:ops ())
  | Colorconv_at ->
    Testbench.run_colorconv_tlm_at ?metrics ?trace_writer
      ~properties ~grid_properties
      (Workload.colorconv ~seed ~count:ops ())
  | Memctrl_rtl ->
    Memctrl_testbench.run_rtl ?metrics ?trace_writer ~properties
      (Workload.memctrl ~seed ~count:ops ())
  | Memctrl_ca ->
    Memctrl_testbench.run_tlm_ca ?metrics ?trace_writer ~properties
      (Workload.memctrl ~seed ~count:ops ())
  | Memctrl_at ->
    Memctrl_testbench.run_tlm_at ?metrics ?trace_writer ~properties
      (Workload.memctrl ~seed ~count:ops ())

(* The LT model records nothing: it exists to violate timing
   equivalence, so a trace of it would not replay meaningfully. *)
let supports_trace = function
  | Des56_lt -> false
  | Des56_rtl | Des56_ca | Des56_at | Colorconv_rtl | Colorconv_ca
  | Colorconv_at | Memctrl_rtl | Memctrl_ca | Memctrl_at ->
    true

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
