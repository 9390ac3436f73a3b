(** The DES-56 block cipher (FIPS 46-3), implemented from scratch: on
    native ints, through byte-indexed permutation tables and combined
    S-box/P tables derived at start-up from the standard's tables.

    Besides whole-block [encrypt]/[decrypt], the module exposes the
    per-round datapath pieces ([initial_permutation], [round],
    [final_swap_permutation], [round_keys]) so the RTL model can
    execute exactly one Feistel round per clock cycle, giving the
    17-cycle latency of the paper's DES56 IP (1 load + 16 rounds). *)

(** 16 round keys (48 bits each, right-aligned) derived from a 64-bit
    key (parity bits ignored, as per PC-1). *)
val round_keys : int64 -> int64 array

(** Initial permutation IP, split into the (L0, R0) halves (32 bits
    each, right-aligned). *)
val initial_permutation : int64 -> int64 * int64

(** One Feistel round: [(l', r') = (r, l lxor f (r, k))]. *)
val round : int64 * int64 -> key:int64 -> int64 * int64

(** Final swap and permutation IP^-1 applied to [(l16, r16)]. *)
val final_swap_permutation : int64 * int64 -> int64

val encrypt : key:int64 -> int64 -> int64
val decrypt : key:int64 -> int64 -> int64

(** [process ~decrypt ~key block]: convenience dispatcher. *)
val process : decrypt:bool -> key:int64 -> int64 -> int64
