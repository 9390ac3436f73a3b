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

(* The cipher runs on native ints: 32-bit halves, 48-bit round keys and
   the 56-bit C||D, so the sixteen rounds of a block allocate nothing.
   The tables above stay the only source: each bit permutation becomes
   byte-indexed lookups derived from them once, here, and each S-box is
   folded with P into one 64-entry table.  Outputs are those of the
   bit-serial definition, bit for bit. *)

let mask28 = 0xFFF_FFFF
let mask32 = 0xFFFF_FFFF

(* [byte_table ~in_width table] has one 256-entry row per input byte
   (row 0 holds the most significant byte); entry [v] of a row is
   [table] applied to that byte alone holding [v], so [table] applied
   to an input is the OR of one entry per byte.  A row is filled from
   its eight single-bit images, each entry extending a smaller one by
   its top bit.  The output, [Array.length table] bits, must fit an
   int. *)
let byte_table ~in_width table =
  let out_width = Array.length table in
  let images = Array.make in_width 0 in
  Array.iteri
    (fun i pos -> images.(pos - 1) <- images.(pos - 1) lor (1 lsl (out_width - 1 - i)))
    table;
  let t = Array.make (in_width / 8 * 256) 0 in
  for row = 0 to (in_width / 8) - 1 do
    for j = 7 downto 0 do
      let top = 0x80 lsr j in
      for v = top to (2 * top) - 1 do
        t.((row * 256) + v) <- t.((row * 256) + v - top) lor images.((row * 8) + j)
      done
    done
  done;
  t

(* The byte table [t] applied to the 32-bit [v] as its rows [row ..
   row + 3]. *)
let apply32 t row v =
  let base = row * 256 in
  t.(base + (v lsr 24))
  lor t.(base + 256 + ((v lsr 16) land 0xFF))
  lor t.(base + 512 + ((v lsr 8) land 0xFF))
  lor t.(base + 768 + (v land 0xFF))

(* The byte table [t] applied to the 64-bit input [hi || lo]. *)
let apply64 t hi lo = apply32 t 0 hi lor apply32 t 4 lo

(* IP and IP^-1 have 64 output bits: one table per 32-bit half. *)
let ip_left = byte_table ~in_width:64 (Array.sub ip_table 0 32)
let ip_right = byte_table ~in_width:64 (Array.sub ip_table 32 32)
let fp_high = byte_table ~in_width:64 (Array.sub fp_table 0 32)
let fp_low = byte_table ~in_width:64 (Array.sub fp_table 32 32)
let pc1 = byte_table ~in_width:64 pc1_table
let pc2 = byte_table ~in_width:56 pc2_table
let expand = byte_table ~in_width:32 e_table

(* [sp.(64 * box + six)]: P applied to S-box [box]'s output for the
   six-bit group [six], in that box's nibble of the 32-bit word. *)
let sp =
  let p = byte_table ~in_width:32 p_table in
  Array.init 512 (fun i ->
    let box = i / 64 and six = i land 0x3F in
    let row = ((six lsr 4) land 2) lor (six land 1) in
    let col = (six lsr 1) land 0xF in
    apply32 p 0 (sboxes.(box).((row * 16) + col) lsl (4 * (7 - box))))

let high v = Int64.to_int (Int64.shift_right_logical v 32)
let low v = Int64.to_int v land mask32

let rotl28 v n = ((v lsl n) lor (v lsr (28 - n))) land mask28

let key_schedule key =
  let cd = apply64 pc1 (high key) (low key) in
  let c = ref (cd lsr 28) and d = ref (cd land mask28) in
  let keys = Array.make 16 0 in
  for i = 0 to 15 do
    c := rotl28 !c shift_schedule.(i);
    d := rotl28 !d shift_schedule.(i);
    let cd = (!c lsl 28) lor !d in
    keys.(i) <-
      pc2.(cd lsr 48)
      lor pc2.(256 + ((cd lsr 40) land 0xFF))
      lor pc2.(512 + ((cd lsr 32) land 0xFF))
      lor pc2.(768 + ((cd lsr 24) land 0xFF))
      lor pc2.(1024 + ((cd lsr 16) land 0xFF))
      lor pc2.(1280 + ((cd lsr 8) land 0xFF))
      lor pc2.(1536 + (cd land 0xFF))
  done;
  keys

(* f(R, K) on a 32-bit [r] and a 48-bit [k]. *)
let f r k =
  let x = apply32 expand 0 r lxor k in
  sp.((x lsr 42) land 0x3F)
  lor sp.(64 + ((x lsr 36) land 0x3F))
  lor sp.(128 + ((x lsr 30) land 0x3F))
  lor sp.(192 + ((x lsr 24) land 0x3F))
  lor sp.(256 + ((x lsr 18) land 0x3F))
  lor sp.(320 + ((x lsr 12) land 0x3F))
  lor sp.(384 + ((x lsr 6) land 0x3F))
  lor sp.(448 + (x land 0x3F))

(* Pre-output block is R16 | L16 (the halves are swapped). *)
let final_permutation l16 r16 =
  Int64.logor
    (Int64.shift_left (Int64.of_int (apply64 fp_high r16 l16)) 32)
    (Int64.of_int (apply64 fp_low r16 l16))

let round_keys key = Array.map Int64.of_int (key_schedule key)

let initial_permutation block =
  let hi = high block and lo = low block in
  (Int64.of_int (apply64 ip_left hi lo), Int64.of_int (apply64 ip_right hi lo))

let round (l, r) ~key =
  (r, Int64.logxor l (Int64.of_int (f (low r) (Int64.to_int key))))

let final_swap_permutation (l16, r16) = final_permutation (low l16) (low r16)

let process ~decrypt ~key block =
  let keys = key_schedule key in
  let hi = high block and lo = low block in
  let l = ref (apply64 ip_left hi lo) and r = ref (apply64 ip_right hi lo) in
  for i = 0 to 15 do
    let k = keys.(if decrypt then 15 - i else i) in
    let r' = !l lxor f !r k in
    l := !r;
    r := r'
  done;
  final_permutation !l !r

let encrypt ~key block = process ~decrypt:false ~key block
let decrypt ~key block = process ~decrypt:true ~key block
