(** LEB128-style variable-length integer codec over the native [int]
    range.

    [write_uint]/[read_uint] carry non-negative ints (62 magnitude
    bits); [write_zigzag]/[read_zigzag] carry signed ints over the
    full 63-bit pattern, mapping small magnitudes to short encodings.
    Readers raise {!Corrupt} on overlong or truncated input. *)

exception Corrupt of string

(** The longest encoding of an [int]: 9 bytes on a 64-bit host. *)
val max_bytes : int

(** [write_uint b pos v] encodes [v] into [b] from [pos] and returns
    the position after it.  The caller leaves {!max_bytes} of room.
    @raise Invalid_argument when [b] has less room than that at
    [pos]. *)
val write_uint : Bytes.t -> int -> int -> int

val write_zigzag : Bytes.t -> int -> int -> int

(** [read_uint next] pulls bytes from [next] (which raises
    [End_of_file] when exhausted).
    @raise Corrupt on an encoding wider than 63 bits, or one whose
    value does not fit the 62 non-negative magnitude bits (a decoded
    uint is never negative).
    @raise End_of_file like [next]. *)
val read_uint : (unit -> char) -> int

val read_zigzag : (unit -> char) -> int

(** The signed int a zigzag-mapped unsigned pattern stands for:
    [read_zigzag next = unzigzag] of the raw decode. *)
val unzigzag : int -> int
