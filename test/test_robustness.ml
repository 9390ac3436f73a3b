open Tabv_psl

(* Fuzz-style robustness: malformed inputs must raise the documented
   exceptions, never crash or loop. *)

let printable_junk =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 60))

let token_soup =
  (* Strings assembled from language fragments: more likely to reach
     deep parser states than raw junk. *)
  let fragments =
    [ "always"; "eventually"; "next"; "nexte"; "until"; "release"; "("; ")";
      "["; "]"; "{"; "}"; "|->"; "|=>"; "&&"; "||"; "!"; "->"; "a"; "b"; "17";
      "@clk_pos"; "@tb"; ";"; "property"; "="; ","; ".."; "[*2]"; "never";
      "weak_until"; "before"; "next_a"; "next_e"; "const" ]
  in
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_range 0 12) (oneofl fragments)))

let suite_cases =
  [ Helpers.qtest ~count:500 "parser never crashes on printable junk"
      (QCheck.make ~print:(Printf.sprintf "%S") printable_junk)
      (fun source ->
        match Parser.formula_only source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:500 "parser never crashes on token soup"
      (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
      (fun source ->
        match Parser.formula_only source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:500 "file parser never crashes on token soup"
      (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
      (fun source ->
        match Parser.file source with
        | _ -> true
        | exception Parser.Parse_error _ -> true);
    Helpers.qtest ~count:300 "vcd reader never crashes on junk"
      (QCheck.make ~print:(Printf.sprintf "%S")
         QCheck.Gen.(
           map (String.concat "\n")
             (list_size (int_range 0 10)
                (oneof
                   [ printable_junk;
                     oneofl
                       [ "$var wire 1 ! s $end"; "$enddefinitions $end"; "#10";
                         "#5"; "1!"; "b1010 !"; "$timescale 1ns $end"; "x!" ] ]))))
      (fun source ->
        match Tabv_sim.Vcd_reader.parse source with
        | _ -> true
        | exception Tabv_sim.Vcd_reader.Parse_error _ -> true) ]

(* Soak: larger end-to-end runs exercising instance churn and heap
   growth that the small unit workloads never reach. *)
let soak_cases =
  [ Alcotest.test_case "soak: 500-op DES56 RTL with all checkers" `Slow (fun () ->
      let ops = Tabv_duv.Workload.des56 ~seed:101 ~count:500 () in
      let result =
        Tabv_duv.Testbench.run
          { Tabv_duv.Testbench.default with properties = Tabv_duv.Des56_props.all }
          (Tabv_duv.Testbench.des56_rtl ()) ops
      in
      Alcotest.(check int) "ops" 500 result.Tabv_duv.Testbench.completed_ops;
      Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result));
    Alcotest.test_case "soak: 20k-pixel ColorConv CA with all checkers" `Slow
      (fun () ->
        let bursts = Tabv_duv.Workload.colorconv ~seed:101 ~count:20_000 () in
        let result =
          Tabv_duv.Testbench.run
            { Tabv_duv.Testbench.default with properties = Tabv_duv.Colorconv_props.all }
            Tabv_duv.Testbench.colorconv_tlm_ca bursts
        in
        Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result));
    Alcotest.test_case "soak: 2000-op MemCtrl AT read-back" `Slow (fun () ->
      let ops = Tabv_duv.Workload.memctrl ~seed:101 ~count:2000 () in
      let result =
        Tabv_duv.Testbench.run
          { Tabv_duv.Testbench.default with
            properties = Tabv_duv.Memctrl_props.tlm_auto_safe () }
          (Tabv_duv.Testbench.memctrl_tlm_at ()) ops
      in
      Alcotest.(check int) "failures" 0 (Tabv_duv.Testbench.total_failures result);
      Alcotest.(check (list int64)) "reads"
        (List.map Int64.of_int (Tabv_duv.Memctrl_iface.reference_reads ops))
        result.Tabv_duv.Testbench.outputs) ]

let suite = ("robustness", suite_cases @ soak_cases)
