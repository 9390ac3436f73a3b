open Tabv_psl

let property name source = Parser.property_exn ~name source

(* Fig. 3 of the paper. *)
let p1 =
  property "p1" "always (!(ds && indata = 0) || next[17](out != 0)) @clk_pos"

let p2 = property "p2" "always (!ds || (next(!ds until next(rdy)))) @clk_pos"

let p3 =
  property "p3"
    "always (!ds || (next[15](rdy_next_next_cycle) && next[16](rdy_next_cycle) && next[17](rdy))) @clk_pos"

(* Additional properties in the same style. *)
let p4 = property "p4" "always (!ds || next[15](rdy_next_next_cycle)) @clk_pos"

let p5 =
  property "p5"
    "always (!rdy_next_next_cycle || (next(rdy_next_cycle) && next[2](rdy))) @clk_pos"

let p6 = property "p6" "always (!(ds && decrypt) || next[17](rdy)) @clk_pos"

let p7 = property "p7" "always (!ds || next(!rdy until rdy_next_cycle)) @clk_pos"

let p8 = property "p8" "always (!rdy || !rdy_next_cycle) @clk_pos"

let p9 = property "p9" "always (rdy -> next(!rdy)) @clk_pos"

let all = [ p1; p2; p3; p4; p5; p6; p7; p8; p9 ]

let abstracted_signals = [ "rdy_next_cycle"; "rdy_next_next_cycle" ]

let take n =
  if n < 0 || n > List.length all then invalid_arg "Des56_props.take";
  List.filteri (fun i _ -> i < n) all

let rename name = "q" ^ String.sub name 1 (String.length name - 1)

let abstraction_reports () =
  Tabv_core.Methodology.abstract_all ~clock_period:Des56_iface.clock_period
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

let find_output name reports =
  match
    List.find_map
      (fun r ->
        match r.Tabv_core.Methodology.output with
        | Some q when q.Property.name = name -> Some q
        | Some _ | None -> None)
      reports
  with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Des56_props: no abstracted property %s" name)

let tlm_reviewed () =
  let reports = abstraction_reports () in
  let q7 = find_output "q7" reports in
  let q4_refined =
    property "q4r" "always (!ds || nexte[1,170](rdy)) @tb"
  in
  let q8_refined = property "q8r" "always (!rdy || !ds) @tb" in
  tlm_auto_safe () @ [ q7; q4_refined; q8_refined ]
