exception Parse_error of {
  line : int;
  message : string;
}

type t = {
  timescale : string option;
  signals : (string * int) list;
  trace : Tabv_psl.Trace.t;
}

type var = {
  name : string;
  width : int;
  mutable value : int;  (* current bits, low 62 bits kept *)
}

let parse source =
  let lines = String.split_on_char '\n' source in
  let vars : (string, var) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let timescale = ref None in
  let entries = ref [] in
  let current_time = ref (-1) in
  let fail line_no message = raise (Parse_error { line = line_no; message }) in
  let snapshot () =
    if !current_time >= 0 then begin
      let env =
        List.rev_map
          (fun var ->
            ( var.name,
              if var.width = 1 then Tabv_psl.Expr.VBool (var.value <> 0)
              else Tabv_psl.Expr.VInt var.value ))
          !order
      in
      entries := { Tabv_psl.Trace.time = !current_time; env } :: !entries
    end
  in
  let bit_of_char = function
    | '1' -> 1
    | '0' | 'x' | 'X' | 'z' | 'Z' -> 0
    | _ -> -1
  in
  let in_header = ref true in
  List.iteri
    (fun idx raw ->
      let line_no = idx + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else if !in_header then begin
        let words =
          List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
        in
        match words with
        | "$timescale" :: rest ->
          timescale :=
            Some (String.concat " " (List.filter (fun w -> w <> "$end") rest))
        | [ "$var"; _kind; width; id; name; "$end" ]
        | [ "$var"; _kind; width; id; name; _; "$end" ] ->
          (match int_of_string_opt width with
           | Some width when width > 0 ->
             let var = { name; width; value = 0 } in
             Hashtbl.replace vars id var;
             order := var :: !order
           | Some _ | None -> fail line_no "bad $var width")
        | "$enddefinitions" :: _ -> in_header := false
        | _ -> ()  (* $date, $scope, $comment, ... *)
      end
      else
        match line.[0] with
        | '$' -> ()  (* $dumpvars / $end markers *)
        | '#' ->
          (match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
           | Some time ->
             if time < !current_time then fail line_no "time going backwards"
             else if time = !current_time then ()  (* same instant continues *)
             else begin
               snapshot ();
               current_time := time
             end
           | None -> fail line_no "bad timestamp")
        | '0' | '1' | 'x' | 'X' | 'z' | 'Z' ->
          let id = String.sub line 1 (String.length line - 1) in
          (match Hashtbl.find_opt vars id with
           | Some var -> var.value <- bit_of_char line.[0]
           | None -> fail line_no (Printf.sprintf "unknown identifier %S" id))
        | 'b' | 'B' ->
          (match String.index_opt line ' ' with
           | None -> fail line_no "vector change without identifier"
           | Some space ->
             let bits = String.sub line 1 (space - 1) in
             let id =
               String.trim (String.sub line (space + 1) (String.length line - space - 1))
             in
             (match Hashtbl.find_opt vars id with
              | None -> fail line_no (Printf.sprintf "unknown identifier %S" id)
              | Some var ->
                let value = ref 0 in
                String.iter
                  (fun c ->
                    match bit_of_char c with
                    | -1 -> fail line_no (Printf.sprintf "bad vector bit %C" c)
                    | bit -> value := (!value lsl 1) lor bit)
                  bits;
                var.value <- !value))
        | _ -> fail line_no (Printf.sprintf "unexpected line %S" line))
    lines;
  snapshot ();
  {
    timescale = !timescale;
    signals = List.rev_map (fun var -> (var.name, var.width)) !order;
    trace = Tabv_psl.Trace.of_list (List.rev !entries);
  }

let load path = parse (In_channel.with_open_bin path In_channel.input_all)
