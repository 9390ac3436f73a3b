exception Corrupt of string

let max_bytes = (Sys.int_size + 6) / 7

let rec write_uint b pos v =
  let low = v land 0x7f in
  (* [lsr] is a logical shift, so a negative int drains to 0 after at
     most [max_bytes] rounds instead of looping on sign bits. *)
  let rest = v lsr 7 in
  if rest = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr low);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (low lor 0x80));
    write_uint b (pos + 1) rest
  end

let write_uint b pos v =
  if pos < 0 || pos > Bytes.length b - max_bytes then
    invalid_arg "Varint.write_uint";
  write_uint b pos v

let write_zigzag b pos v =
  write_uint b pos ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

(* Raw decode of the full 63-bit pattern: the 9th byte (shift 56)
   carries bits 56..62, so bit 6 of that byte lands on the OCaml int
   sign bit.  Only [read_zigzag] may see it — zigzagged negatives of
   large magnitude legitimately occupy all 63 bits. *)
let read_raw next =
  let rec go shift acc =
    if shift >= Sys.int_size then raise (Corrupt "varint wider than 63 bits");
    let byte = Char.code (next ()) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_uint next =
  let u = read_raw next in
  (* A set sign bit means the encoding exceeded the 62 magnitude bits
     a non-negative int can carry; the write side never produces it
     for a uint field, so fail loudly instead of handing a negative
     (or silently wrapped) value to call sites that expect a count,
     length, or delta. *)
  if u < 0 then raise (Corrupt "uint varint exceeds 62 bits");
  u

let unzigzag u = (u lsr 1) lxor (- (u land 1))
let read_zigzag next = unzigzag (read_raw next)
