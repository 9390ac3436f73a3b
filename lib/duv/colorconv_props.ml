open Tabv_psl

let property name source = Parser.property_exn ~name source

let c1 = property "c1" "always (!dv || next[8](ovalid)) @clk_pos"
let c2 = property "c2" "always (!dv || next(v1)) @clk_pos"
let c3 = property "c3" "always (!v1 || next(v2)) @clk_pos"
let c4 = property "c4" "always (!v2 || next(v3)) @clk_pos"
let c5 = property "c5" "always (!v3 || next(v4)) @clk_pos"
let c6 = property "c6" "always (!v4 || next(v5)) @clk_pos"
let c7 = property "c7" "always (!v5 || next(v6)) @clk_pos"
let c8 = property "c8" "always (!v6 || next(v7)) @clk_pos"
let c9 = property "c9" "always (!v7 || next(ovalid)) @clk_pos"
let c10 = property "c10" "always (!ovalid || (y >= 16 && y <= 235)) @clk_pos"

let c11 =
  property "c11"
    "always (!ovalid || (cb >= 16 && cb <= 240 && cr >= 16 && cr <= 240)) @clk_pos"

let c12 =
  property "c12"
    "always (!(dv && r = 0 && g = 0 && b = 0) || next[8](y = 16)) @clk_pos"

let all = [ c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11; c12 ]

let abstracted_signals = Colorconv_iface.abstracted_signals

let take n =
  if n < 0 || n > List.length all then invalid_arg "Colorconv_props.take";
  List.filteri (fun i _ -> i < n) all

let rename name = "q" ^ name

let abstraction_reports () =
  Tabv_core.Methodology.abstract_all ~clock_period:Colorconv_iface.clock_period
    ~abstracted_signals ~rename all

let tlm_auto_safe () =
  List.filter_map
    (fun report ->
      match report.Tabv_core.Methodology.output with
      | Some q
        when (not report.Tabv_core.Methodology.requires_review)
             && not (Tabv_core.Methodology.needs_dense_trace q.Property.formula) ->
        Some q
      | Some _ | None -> None)
    (abstraction_reports ())

let tlm_reviewed () =
  let qc2_refined =
    property "qc2r"
      "always (!(dv && r = 0 && g = 0 && b = 0) || nexte[1,80](cb = 128)) @tb"
  in
  let qc9_refined =
    property "qc9r" "always (!dv || nexte[1,80](y >= 16 && y <= 235)) @tb"
  in
  tlm_auto_safe () @ [ qc2_refined; qc9_refined ]
