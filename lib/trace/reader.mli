open Tabv_psl

(** Streaming binary trace reader.

    Memory is bounded by the signal dictionary (the current valuation
    is kept for change-mask decoding) plus one block buffer, not by
    the trace length — a multi-gigabyte campaign trace replays in
    O(signal count) live words.  The file is read a block at a time
    (up to 64 KiB, one [read(2)] each, into a buffer no larger than
    the file) and decoded from memory.  Every structural problem —
    wrong magic, unsupported version, truncation (EOF before the end
    record), a failed per-block CRC, counts that do not match the end
    record, trailing bytes — raises {!Format_error} with the offending
    path, the byte [offset] of the damage, and the [valid_prefix]: the
    byte length of the CRC-verified prefix before it, i.e. exactly
    what a salvage tool may keep.  A damaged file is refused, never silently misread,
    and a decoded entry is only ever surfaced after its block's CRC
    has verified. *)

type t

exception
  Format_error of {
    path : string;
    message : string;
    offset : int;  (** byte position at which the damage was detected *)
    valid_prefix : int;
        (** bytes of verified, salvageable prefix before the damage *)
  }

(** Open the file and decode the header.
    @raise Format_error on a non-trace file or unsupported version.
    @raise Sys_error like [open_in_bin] (also when a later read
    fails). *)
val open_file : string -> t

val meta : t -> Meta.t

(** Signal dictionary, in sample order — [[]] until the dictionary
    record has been read (or for a trace without samples). *)
val signals : t -> string list

(** Decode records up to the signal dictionary and return it, like
    {!signals}.  The dictionary precedes the first sample, so no sample
    is consumed; spans recorded before it are decoded, counted and
    CRC-verified on the way.  A trace without samples has no
    dictionary: it is then read to its end, and the result is [[]].
    @raise Format_error on corruption or truncation. *)
val dictionary : t -> string list

(** The current valuation: slot [i] holds the value of the [i]-th
    dictionary signal at the last sample decoded.  The array is the
    reader's own, updated in place by every sample; it exists once the
    dictionary has been read ([[||]] before). *)
val values : t -> Expr.value array

(** Time of the last sample decoded. *)
val time : t -> int

type step =
  | Changed  (** a sample whose change mask has a bit set *)
  | Unchanged
      (** a sample with an all-zero change mask: {!values} stand as
          they were, and decoding it allocated nothing *)
  | End  (** the end record has been consumed *)

(** [step t] decodes the next sample into {!values} (at {!time}).
    Spans on the way are decoded, counted and CRC-verified, not
    returned.  A sample is only reported once its block's CRC has
    verified.
    @raise Format_error on corruption or truncation. *)
val step : t -> step

(** Next entry, [None] once the end record has been consumed: the same
    decoder as {!step}, with each sample's env built from {!values}.
    A sample with no changes re-emits the previous env physically.
    @raise Format_error on corruption or truncation. *)
val next : t -> Entry.t option

(** Samples/spans decoded so far. *)
val samples : t -> int

val spans : t -> int

(** Bytes of CRC-verified prefix consumed so far — what {!Format_error}
    would report as [valid_prefix] if the next block were damaged. *)
val valid_prefix : t -> int

val close : t -> unit

(** One-shot ephemeral sequence of the remaining entries (consuming
    [t]; do not reuse after forcing). *)
val to_seq : t -> Entry.t Seq.t

(** [with_file path f] opens, runs [f], closes (also on exception). *)
val with_file : string -> (t -> 'a) -> 'a

(** Convenience: stream the whole file once, returning the meta and
    the materialized sample trace (spans discarded).  For tooling and
    tests — re-checking should stay on the streaming path. *)
val read_trace : string -> Meta.t * Trace.t

(** [catch_read_error f] is [f ()], with a {!Format_error} it raises
    turned into [Error "PATH: MESSAGE (at byte N; verified prefix M
    bytes)"] — the one text every entry point reports a damaged trace
    with — and a [Sys_error] (a trace that is missing, a directory or
    unreadable) into [Error "PATH: MESSAGE"]. *)
val catch_read_error : (unit -> ('a, string) result) -> ('a, string) result
