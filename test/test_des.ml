open Tabv_duv

let check_hex name expected actual =
  Alcotest.(check string) name (Printf.sprintf "%016Lx" expected)
    (Printf.sprintf "%016Lx" actual)

let case name f = Alcotest.test_case name `Quick f

(* Classic worked example (Stallings) and NIST-style known-answer
   vectors that appear in virtually every DES test suite. *)
let known_answer_vectors =
  [ (0x133457799BBCDFF1L, 0x0123456789ABCDEFL, 0x85E813540F0AB405L);
    (0x7CA110454A1A6E57L, 0x01A1D6D039776742L, 0x690F5B0D9A26939BL);
    (0x0131D9619DC1376EL, 0x5CD54CA83DEF57DAL, 0x7A389D10354BD271L);
    (0x07A1133E4A0B2686L, 0x0248D43806F67172L, 0x868EBB51CAB4599AL);
    (0x04B915BA43FEB5B6L, 0x42FD443059577FA2L, 0xAF37FB421F8C4095L) ]

let kat_cases =
  List.mapi
    (fun i (key, plaintext, ciphertext) ->
      case (Printf.sprintf "known answer %d" (i + 1)) (fun () ->
        check_hex "encrypt" ciphertext (Des.encrypt ~key plaintext);
        check_hex "decrypt" plaintext (Des.decrypt ~key ciphertext)))
    known_answer_vectors

let structure_cases =
  [ case "sixteen round keys of 48 bits" (fun () ->
      let keys = Des.round_keys 0x133457799BBCDFF1L in
      Alcotest.(check int) "count" 16 (Array.length keys);
      Array.iter
        (fun k ->
          Alcotest.(check bool) "fits in 48 bits" true
            (Int64.logand k 0xFFFF000000000000L = 0L))
        keys);
    case "first round key of the classic example" (fun () ->
      (* K1 = 000110 110000 001011 101111 111111 000111 000001 110010 *)
      let keys = Des.round_keys 0x133457799BBCDFF1L in
      check_hex "k1" 0x1B02EFFC7072L keys.(0));
    case "round-by-round equals whole-block encrypt" (fun () ->
      let key = 0x0123456789ABCDEFL and block = 0x4E6F772069732074L in
      let keys = Des.round_keys key in
      let state = ref (Des.initial_permutation block) in
      for i = 0 to 15 do
        state := Des.round !state ~key:keys.(i)
      done;
      check_hex "composed" (Des.encrypt ~key block) (Des.final_swap_permutation !state));
    case "process dispatches on mode" (fun () ->
      let key = 0x133457799BBCDFF1L and block = 0x0123456789ABCDEFL in
      check_hex "encrypt mode" (Des.encrypt ~key block)
        (Des.process ~decrypt:false ~key block);
      check_hex "decrypt mode" (Des.decrypt ~key block)
        (Des.process ~decrypt:true ~key block)) ]

(* Full 64-bit keys and blocks: the top bits of each half are the top
   bits of a byte table's first index byte. *)
let arb_block = QCheck.make ~print:(Printf.sprintf "%016Lx") QCheck.Gen.int64

let property_cases =
  [ Helpers.qtest ~count:100 "decrypt inverts encrypt"
      QCheck.(pair arb_block arb_block)
      (fun (key, block) -> Des.decrypt ~key (Des.encrypt ~key block) = block);
    Helpers.qtest ~count:100 "flipping a plaintext bit changes the ciphertext"
      QCheck.(pair arb_block arb_block)
      (fun (key, block) ->
        Des.encrypt ~key block <> Des.encrypt ~key (Int64.logxor block 1L));
    Helpers.qtest ~count:50 "complementation property"
      QCheck.(pair arb_block arb_block)
      (fun (key, block) ->
        (* DES(~k, ~p) = ~DES(k, p) *)
        Des.encrypt ~key:(Int64.lognot key) (Int64.lognot block)
        = Int64.lognot (Des.encrypt ~key block)) ]

(* The table-driven cipher against the bit-serial reference. *)
module Ref = Tabv_oracle.Des_reference

let half = QCheck.Gen.map (fun v -> Int64.logand v 0xFFFFFFFFL) QCheck.Gen.int64
let round_key = QCheck.Gen.map (fun v -> Int64.logand v 0xFFFFFFFFFFFFL) QCheck.Gen.int64

let differential_cases =
  [ Helpers.qtest ~count:10_000 "process, encrypt and decrypt equal the reference"
      QCheck.(triple arb_block arb_block bool)
      (fun (key, block, decrypt) ->
        Des.process ~decrypt ~key block = Ref.process ~decrypt ~key block
        && Des.encrypt ~key block = Ref.encrypt ~key block
        && Des.decrypt ~key block = Ref.decrypt ~key block);
    Helpers.qtest ~count:1_000 "round keys equal the reference" arb_block (fun key ->
        Des.round_keys key = Ref.round_keys key);
    Helpers.qtest ~count:1_000 "the initial permutation equals the reference" arb_block
      (fun block -> Des.initial_permutation block = Ref.initial_permutation block);
    Helpers.qtest ~count:1_000 "a round equals the reference"
      (QCheck.make
         ~print:(fun (l, r, k) -> Printf.sprintf "(%08Lx, %08Lx) key %012Lx" l r k)
         QCheck.Gen.(triple half half round_key))
      (fun (l, r, key) -> Des.round (l, r) ~key = Ref.round (l, r) ~key);
    Helpers.qtest ~count:1_000 "the final swap and permutation equal the reference"
      (QCheck.make
         ~print:(fun (l, r) -> Printf.sprintf "(%08Lx, %08Lx)" l r)
         QCheck.Gen.(pair half half))
      (fun (l, r) -> Des.final_swap_permutation (l, r) = Ref.final_swap_permutation (l, r)) ]

(* The all-zero and all-one keys, and the four weak keys of FIPS 74:
   sixteen equal round keys, so encryption is its own inverse. *)
let weak_keys =
  [ 0x0000000000000000L; 0xFFFFFFFFFFFFFFFFL; 0x0101010101010101L;
    0xFEFEFEFEFEFEFEFEL; 0xE0E0E0E0F1F1F1F1L; 0x1F1F1F1F0E0E0E0EL ]

let weak_key_cases =
  [ case "the all-zero key on the all-zero block" (fun () ->
      check_hex "encrypt" 0x8CA64DE9C1B123A7L (Des.encrypt ~key:0L 0L));
    case "the all-one key on the all-one block" (fun () ->
      check_hex "encrypt" 0x7359B2163E4EDC58L (Des.encrypt ~key:(-1L) (-1L)));
    case "weak keys: equal round keys, encryption is an involution" (fun () ->
      List.iter
        (fun key ->
          let name = Printf.sprintf "key %016Lx" key in
          let keys = Des.round_keys key in
          Alcotest.(check (array int64)) (name ^ " round keys") (Ref.round_keys key) keys;
          Array.iter (fun k -> check_hex (name ^ " equal round keys") keys.(0) k) keys;
          List.iter
            (fun block ->
              let c = Des.encrypt ~key block in
              check_hex (name ^ " reference") (Ref.encrypt ~key block) c;
              check_hex (name ^ " involution") block (Des.encrypt ~key c);
              check_hex (name ^ " decrypt equals encrypt") c (Des.decrypt ~key block))
            [ 0L; -1L; 0x0123456789ABCDEFL; 0x8000000000000001L ])
        weak_keys) ]

(* A block's sixteen rounds allocate nothing: a cipher allocates its
   round-key array (17 words) and its boxed result (3 words). *)
let allocation_cases =
  [ case "a cipher allocates its round keys and its result only" (fun () ->
      let words n =
        let before = Gc.minor_words () in
        for i = 1 to n do
          ignore (Sys.opaque_identity (Des.process ~decrypt:(i land 1 = 0) ~key:0x133457799BBCDFF1L 0x0123456789ABCDEFL))
        done;
        Gc.minor_words () -. before
      in
      let per_cipher = (words 2_000 -. words 1_000) /. 1_000. in
      if per_cipher > 20. then Alcotest.failf "%.1f minor words per cipher" per_cipher) ]

let suite =
  ( "des",
    kat_cases @ structure_cases @ property_cases @ differential_cases
    @ weak_key_cases @ allocation_cases )
