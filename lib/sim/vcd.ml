type var = {
  id : string;
  name : string;
  width : int;
}

type t = {
  buffer : Buffer.t;
  timescale : string;
  mutable vars : var list;  (* reversed *)
  mutable header_done : bool;
  mutable last_time : int;
  mutable next_id : int;
}

let create buffer ~timescale =
  { buffer; timescale; vars = []; header_done = false; last_time = -1; next_id = 0 }

(* VCD identifiers: printable ASCII starting at '!'. *)
let make_id n =
  let base = 94 and first = 33 in
  let rec go n acc =
    let c = Char.chr (first + (n mod base)) in
    let acc = String.make 1 c ^ acc in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

let add_var t ~name ~width =
  if t.header_done then invalid_arg "Vcd.add_var: header already written";
  let var = { id = make_id t.next_id; name; width } in
  t.next_id <- t.next_id + 1;
  t.vars <- var :: t.vars;
  var

let write_header t =
  let out = t.buffer in
  Printf.bprintf out "$date generated by tabv $end\n";
  Printf.bprintf out "$timescale %s $end\n" t.timescale;
  Printf.bprintf out "$scope module tabv $end\n";
  List.iter
    (fun v -> Printf.bprintf out "$var wire %d %s %s $end\n" v.width v.id v.name)
    (List.rev t.vars);
  Printf.bprintf out "$upscope $end\n$enddefinitions $end\n";
  t.header_done <- true

let advance t time =
  if not t.header_done then write_header t;
  if time < t.last_time then invalid_arg "Vcd: time going backwards";
  if time > t.last_time then begin
    Printf.bprintf t.buffer "#%d\n" time;
    t.last_time <- time
  end

let change_bool t ~time var value =
  advance t time;
  Printf.bprintf t.buffer "%c%s\n" (if value then '1' else '0') var.id

let bin_of_int64 width v =
  let buf = Bytes.make width '0' in
  for bit = 0 to width - 1 do
    if Int64.logand (Int64.shift_right_logical v bit) 1L = 1L then
      Bytes.set buf (width - 1 - bit) '1'
  done;
  Bytes.to_string buf

let change_int64 t ~time var value =
  advance t time;
  Printf.bprintf t.buffer "b%s %s\n" (bin_of_int64 var.width value) var.id

let close t = if not t.header_done then write_header t
