(** Minimal VCD (Value Change Dump) writer for waveform inspection.

    Register variables before the first {!change}; the header is
    emitted lazily on the first value change.  Times must be
    non-decreasing. *)

type t

type var

(** [create buffer ~timescale] — a writer appending to [buffer]. *)
val create : Buffer.t -> timescale:string -> t

(** Register a variable. [width] in bits (1 for booleans). *)
val add_var : t -> name:string -> width:int -> var

(** Record a scalar (1-bit) change. *)
val change_bool : t -> time:int -> var -> bool -> unit

(** Record a vector change (binary format). *)
val change_int64 : t -> time:int -> var -> int64 -> unit

(** End the dump: write the header if no change did. *)
val close : t -> unit
