open Tabv_psl

let to_string ?(width = 62) trace =
  let buffer = Buffer.create 4096 in
  let vcd = Vcd.create buffer ~timescale:"1ns" in
  let vars =
    if Trace.length trace = 0 then []
    else
      List.map
        (fun (name, value) ->
          let var_width =
            match value with
            | Expr.VBool _ -> 1
            | Expr.VInt _ -> width
          in
          (name, Vcd.add_var vcd ~name ~width:var_width))
        (Trace.get trace 0).Trace.env
  in
  List.iter
    (fun (entry : Trace.entry) ->
      List.iter
        (fun (name, var) ->
          match Trace.lookup entry name with
          | Some (Expr.VBool v) -> Vcd.change_bool vcd ~time:entry.Trace.time var v
          | Some (Expr.VInt v) ->
            Vcd.change_int64 vcd ~time:entry.Trace.time var (Int64.of_int v)
          | None -> ())
        vars)
    (Trace.to_list trace);
  Vcd.close vcd;
  Buffer.contents buffer

let to_file ?width trace path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string ?width trace))
