(* Table-driven reflected CRC-32.  The per-byte state kept in the
   accumulator is the complemented register, so intermediate values
   are themselves valid CRCs of the prefix — that is what lets the
   trace reader fold over bytes as it consumes them. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let table = Lazy.force table in
  let c = ref (lnot crc land 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  lnot !c land 0xFFFFFFFF

let string s = update 0 s ~pos:0 ~len:(String.length s)

let byte crc c =
  let table = Lazy.force table in
  let r = lnot crc land 0xFFFFFFFF in
  let r = table.((r lxor Char.code c) land 0xFF) lxor (r lsr 8) in
  lnot r land 0xFFFFFFFF

(* The uncomplemented shift register, for hot streaming folds (the
   trace reader and writer fold every record of a trace, a run of
   bytes at a time; the finalizing complements would be paid per run).
   [finish] recovers the CRC [update]/[byte] would have produced. *)
module Raw = struct
  let table () = Lazy.force table
  let start = 0xFFFFFFFF

  let feed_string tbl raw s ~pos ~len =
    let r = ref raw in
    for i = pos to pos + len - 1 do
      r :=
        Array.unsafe_get tbl ((!r lxor Char.code (String.unsafe_get s i)) land 0xFF)
        lxor (!r lsr 8)
    done;
    !r

  let finish raw = lnot raw land 0xFFFFFFFF
end

let to_hex crc = Printf.sprintf "%08x" (crc land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else begin
    let ok = ref true in
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' | 'a' .. 'f' -> ()
        | _ -> ok := false)
      s;
    if !ok then int_of_string_opt ("0x" ^ s) else None
  end
