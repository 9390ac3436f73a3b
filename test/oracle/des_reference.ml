(* The bit-serial DES56 cipher (FIPS 46-3), verbatim: every permutation
   walks its FIPS table one bit at a time on [int64]s.  The executable
   specification the table-driven [Tabv_duv.Des] is diffed against. *)

(* Tables follow FIPS 46-3 conventions: 1-based bit positions counted
   from the most significant bit of the input word. *)

let ip_table =
  [| 58; 50; 42; 34; 26; 18; 10; 2; 60; 52; 44; 36; 28; 20; 12; 4;
     62; 54; 46; 38; 30; 22; 14; 6; 64; 56; 48; 40; 32; 24; 16; 8;
     57; 49; 41; 33; 25; 17; 9; 1; 59; 51; 43; 35; 27; 19; 11; 3;
     61; 53; 45; 37; 29; 21; 13; 5; 63; 55; 47; 39; 31; 23; 15; 7 |]

let fp_table =
  [| 40; 8; 48; 16; 56; 24; 64; 32; 39; 7; 47; 15; 55; 23; 63; 31;
     38; 6; 46; 14; 54; 22; 62; 30; 37; 5; 45; 13; 53; 21; 61; 29;
     36; 4; 44; 12; 52; 20; 60; 28; 35; 3; 43; 11; 51; 19; 59; 27;
     34; 2; 42; 10; 50; 18; 58; 26; 33; 1; 41; 9; 49; 17; 57; 25 |]

let e_table =
  [| 32; 1; 2; 3; 4; 5; 4; 5; 6; 7; 8; 9; 8; 9; 10; 11; 12; 13;
     12; 13; 14; 15; 16; 17; 16; 17; 18; 19; 20; 21; 20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29; 28; 29; 30; 31; 32; 1 |]

let p_table =
  [| 16; 7; 20; 21; 29; 12; 28; 17; 1; 15; 23; 26; 5; 18; 31; 10;
     2; 8; 24; 14; 32; 27; 3; 9; 19; 13; 30; 6; 22; 11; 4; 25 |]

let pc1_table =
  [| 57; 49; 41; 33; 25; 17; 9; 1; 58; 50; 42; 34; 26; 18;
     10; 2; 59; 51; 43; 35; 27; 19; 11; 3; 60; 52; 44; 36;
     63; 55; 47; 39; 31; 23; 15; 7; 62; 54; 46; 38; 30; 22;
     14; 6; 61; 53; 45; 37; 29; 21; 13; 5; 28; 20; 12; 4 |]

let pc2_table =
  [| 14; 17; 11; 24; 1; 5; 3; 28; 15; 6; 21; 10;
     23; 19; 12; 4; 26; 8; 16; 7; 27; 20; 13; 2;
     41; 52; 31; 37; 47; 55; 30; 40; 51; 45; 33; 48;
     44; 49; 39; 56; 34; 53; 46; 42; 50; 36; 29; 32 |]

let shift_schedule = [| 1; 1; 2; 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1 |]

let sboxes =
  [| (* S1 *)
     [| 14; 4; 13; 1; 2; 15; 11; 8; 3; 10; 6; 12; 5; 9; 0; 7;
        0; 15; 7; 4; 14; 2; 13; 1; 10; 6; 12; 11; 9; 5; 3; 8;
        4; 1; 14; 8; 13; 6; 2; 11; 15; 12; 9; 7; 3; 10; 5; 0;
        15; 12; 8; 2; 4; 9; 1; 7; 5; 11; 3; 14; 10; 0; 6; 13 |];
     (* S2 *)
     [| 15; 1; 8; 14; 6; 11; 3; 4; 9; 7; 2; 13; 12; 0; 5; 10;
        3; 13; 4; 7; 15; 2; 8; 14; 12; 0; 1; 10; 6; 9; 11; 5;
        0; 14; 7; 11; 10; 4; 13; 1; 5; 8; 12; 6; 9; 3; 2; 15;
        13; 8; 10; 1; 3; 15; 4; 2; 11; 6; 7; 12; 0; 5; 14; 9 |];
     (* S3 *)
     [| 10; 0; 9; 14; 6; 3; 15; 5; 1; 13; 12; 7; 11; 4; 2; 8;
        13; 7; 0; 9; 3; 4; 6; 10; 2; 8; 5; 14; 12; 11; 15; 1;
        13; 6; 4; 9; 8; 15; 3; 0; 11; 1; 2; 12; 5; 10; 14; 7;
        1; 10; 13; 0; 6; 9; 8; 7; 4; 15; 14; 3; 11; 5; 2; 12 |];
     (* S4 *)
     [| 7; 13; 14; 3; 0; 6; 9; 10; 1; 2; 8; 5; 11; 12; 4; 15;
        13; 8; 11; 5; 6; 15; 0; 3; 4; 7; 2; 12; 1; 10; 14; 9;
        10; 6; 9; 0; 12; 11; 7; 13; 15; 1; 3; 14; 5; 2; 8; 4;
        3; 15; 0; 6; 10; 1; 13; 8; 9; 4; 5; 11; 12; 7; 2; 14 |];
     (* S5 *)
     [| 2; 12; 4; 1; 7; 10; 11; 6; 8; 5; 3; 15; 13; 0; 14; 9;
        14; 11; 2; 12; 4; 7; 13; 1; 5; 0; 15; 10; 3; 9; 8; 6;
        4; 2; 1; 11; 10; 13; 7; 8; 15; 9; 12; 5; 6; 3; 0; 14;
        11; 8; 12; 7; 1; 14; 2; 13; 6; 15; 0; 9; 10; 4; 5; 3 |];
     (* S6 *)
     [| 12; 1; 10; 15; 9; 2; 6; 8; 0; 13; 3; 4; 14; 7; 5; 11;
        10; 15; 4; 2; 7; 12; 9; 5; 6; 1; 13; 14; 0; 11; 3; 8;
        9; 14; 15; 5; 2; 8; 12; 3; 7; 0; 4; 10; 1; 13; 11; 6;
        4; 3; 2; 12; 9; 5; 15; 10; 11; 14; 1; 7; 6; 0; 8; 13 |];
     (* S7 *)
     [| 4; 11; 2; 14; 15; 0; 8; 13; 3; 12; 9; 7; 5; 10; 6; 1;
        13; 0; 11; 7; 4; 9; 1; 10; 14; 3; 5; 12; 2; 15; 8; 6;
        1; 4; 11; 13; 12; 3; 7; 14; 10; 15; 6; 8; 0; 5; 9; 2;
        6; 11; 13; 8; 1; 4; 10; 7; 9; 5; 0; 15; 14; 2; 3; 12 |];
     (* S8 *)
     [| 13; 2; 8; 4; 6; 15; 11; 1; 10; 9; 3; 14; 5; 0; 12; 7;
        1; 15; 13; 8; 10; 3; 7; 4; 12; 5; 6; 11; 0; 14; 9; 2;
        7; 11; 4; 1; 9; 12; 14; 2; 0; 6; 10; 13; 15; 3; 5; 8;
        2; 1; 14; 7; 4; 10; 8; 13; 15; 12; 9; 0; 3; 5; 6; 11 |] |]

(* [bit v pos width]: the bit at 1-based position [pos] counted from
   the MSB of the [width]-bit value [v]. *)
let bit v pos width = Int64.logand (Int64.shift_right_logical v (width - pos)) 1L

let permute v ~in_width table =
  let out = ref 0L in
  for i = 0 to Array.length table - 1 do
    out := Int64.logor (Int64.shift_left !out 1) (bit v table.(i) in_width)
  done;
  !out

let mask28 = 0xFFFFFFFL

let rotl28 v n =
  Int64.logand
    (Int64.logor (Int64.shift_left v n) (Int64.shift_right_logical v (28 - n)))
    mask28

let round_keys key =
  let pc1 = permute key ~in_width:64 pc1_table in
  let c = ref (Int64.shift_right_logical pc1 28) in
  let d = ref (Int64.logand pc1 mask28) in
  Array.map
    (fun shift ->
      c := rotl28 !c shift;
      d := rotl28 !d shift;
      let cd = Int64.logor (Int64.shift_left !c 28) !d in
      permute cd ~in_width:56 pc2_table)
    shift_schedule

let initial_permutation block =
  let ip = permute block ~in_width:64 ip_table in
  (Int64.shift_right_logical ip 32, Int64.logand ip 0xFFFFFFFFL)

let f r ~key =
  let expanded = permute r ~in_width:32 e_table in
  let x = Int64.logxor expanded key in
  let out = ref 0L in
  for box = 0 to 7 do
    let six = Int64.to_int (Int64.logand (Int64.shift_right_logical x ((7 - box) * 6)) 0x3FL) in
    let row = ((six lsr 4) land 2) lor (six land 1) in
    let col = (six lsr 1) land 0xF in
    out := Int64.logor (Int64.shift_left !out 4) (Int64.of_int sboxes.(box).((row * 16) + col))
  done;
  permute !out ~in_width:32 p_table

let round (l, r) ~key = (r, Int64.logxor l (f r ~key))

let final_swap_permutation (l16, r16) =
  (* Pre-output block is R16 | L16 (the halves are swapped). *)
  let preoutput = Int64.logor (Int64.shift_left r16 32) l16 in
  permute preoutput ~in_width:64 fp_table

let run keys block =
  let state = ref (initial_permutation block) in
  for i = 0 to 15 do
    state := round !state ~key:keys.(i)
  done;
  final_swap_permutation !state

let encrypt ~key block = run (round_keys key) block

let decrypt ~key block =
  let keys = round_keys key in
  let reversed = Array.init 16 (fun i -> keys.(15 - i)) in
  run reversed block

let process ~decrypt:d ~key block = if d then decrypt ~key block else encrypt ~key block
