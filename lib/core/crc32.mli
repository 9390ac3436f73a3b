(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    The checksum that frames durable storage records: journal lines
    ({!Journal}) and trace blocks ([lib/trace]) carry one so that a
    torn or corrupted record is detected on read-back instead of
    replayed as garbage.  Incremental: [update] composes, so a reader
    can fold the CRC over bytes as it consumes them and compare at the
    record boundary without buffering. *)

(** [update crc s ~pos ~len] extends [crc] (initially [0]) with
    [s.[pos .. pos+len-1]].  The running value is the finalized CRC of
    everything fed so far — no separate [finish] step. *)
val update : int -> string -> pos:int -> len:int -> int

(** [string s] is [update 0 s ~pos:0 ~len:(String.length s)]. *)
val string : string -> int

(** [byte crc c] extends [crc] with the single byte [c]. *)
val byte : int -> char -> int

(** The uncomplemented shift register, for hot streaming folds (the
    trace reader and writer fold every record of every trace, a run of
    bytes at a time).  A caller keeps [start], folds runs of bytes
    into it with {!Raw.feed_string} against the [table ()] it cached,
    and {!Raw.finish} recovers exactly the value {!update}/{!byte}
    would have produced. *)
module Raw : sig
  (** The forced 256-entry table (allocate-free after the first
      call). *)
  val table : unit -> int array

  (** Register value for an empty input. *)
  val start : int

  (** Fold a substring into the register (the open-coded per-byte
      step, batched). *)
  val feed_string : int array -> int -> string -> pos:int -> len:int -> int

  (** The finalized CRC of everything fed. *)
  val finish : int -> int
end

(** Lowercase 8-digit hex rendering ([%08x]) — the journal line
    framing format. *)
val to_hex : int -> string

(** Inverse of {!to_hex}: [None] unless the string is exactly 8
    lowercase hex digits. *)
val of_hex : string -> int option
