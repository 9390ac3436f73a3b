(** The bit-serial DES56 cipher (FIPS 46-3), kept as the executable
    specification of {!Tabv_duv.Des}.  The two must agree on every
    block, key and mode, and piece by piece on the datapath the RTL
    model composes; [test/test_des.ml] checks this property-based.
    Same signatures and value domains as {!Tabv_duv.Des}. *)

val round_keys : int64 -> int64 array
val initial_permutation : int64 -> int64 * int64
val round : int64 * int64 -> key:int64 -> int64 * int64
val final_swap_permutation : int64 * int64 -> int64
val encrypt : key:int64 -> int64 -> int64
val decrypt : key:int64 -> int64 -> int64
val process : decrypt:bool -> key:int64 -> int64 -> int64
