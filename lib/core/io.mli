(** Durable-file IO seam.

    Every byte the system intends to survive a crash — campaign
    journals, binary traces, report JSON, serve state files — is
    written through this module instead of raw [Out_channel]s.  That
    buys two things:

    {ul
    {- One place that implements the crash-consistency idioms
       correctly: buffered writes flushed as whole records,
       [fsync]-before-ack, and temp-file + [fsync] + atomic-[rename]
       ({!write_file_atomic}).}
    {- An {e interpose hook} — the same methodology as
       [Signal.interpose] — that lets [Fault.Io] compile seeded
       filesystem-fault plans (short writes, ENOSPC, EIO, lying
       fsyncs, power cuts) onto the real write path with zero cost
       when no hook is installed.}}

    Failures surface as {!Io_error} carrying the operation, the path
    and the underlying [Unix.error]; callers never see a raw
    [Unix.Unix_error] from this module.

    Thread-safety: a {!t} is single-writer (callers serialize, e.g.
    [Journal] holds its mutex across append+fsync); the interpose hook
    is global and read atomically, so installing/clearing from one
    domain while another writes is well-defined. *)

(** A failed durable-IO primitive.  [op] is one of ["write"],
    ["fsync"], ["rename"], ["close"], ["open"]. *)
exception Io_error of { op : string; path : string; error : Unix.error }

(** A buffered writable file. *)
type t

(** {2 Interpose hook} *)

(** Verdict for one flushed write of [len] bytes at [offset]. *)
type write_decision =
  | Write_through  (** perform the write *)
  | Write_short of { bytes : int; error : Unix.error }
      (** write only the first [bytes] bytes, then fail with [error] —
          a torn write, as left by ENOSPC or a power cut *)
  | Write_error of Unix.error  (** write nothing, fail with [error] *)

(** Verdict for one [fsync]. *)
type fsync_decision =
  | Fsync_through  (** perform the fsync *)
  | Fsync_error of Unix.error  (** fail with [error] *)
  | Fsync_lost
      (** report success {e without} syncing — a lying disk cache; the
          data is not durable and a simulated crash may drop it *)

(** Verdict for a rename or close. *)
type op_decision = Op_through | Op_error of Unix.error

type hook = {
  on_write : path:string -> offset:int -> len:int -> write_decision;
      (** consulted once per flushed chunk; [offset] is the number of
          bytes already flushed to this file by its {!t} *)
  on_fsync : path:string -> fsync_decision;
  on_rename : src:string -> dst:string -> op_decision;
  on_close : path:string -> op_decision;
}

(** Install [hook] globally (replacing any previous one).  Affects
    every subsequent primitive until {!clear_interpose}. *)
val interpose : hook -> unit

val clear_interpose : unit -> unit

(** Whether a hook is currently installed. *)
val interposed : unit -> bool

(** {2 Writable files} *)

(** Create/truncate [path] for writing. *)
val create : string -> t

(** Open [path] for appending (created if missing); the write offset
    reported to the hook starts at the current file size. *)
val append : string -> t

val path : t -> string

(** Bytes flushed to the file so far (the hook-visible offset). *)
val flushed : t -> int

(** Stage bytes in the buffer — no syscall, no hook consultation. *)
val write : t -> string -> unit

(** Push staged bytes to the file as one chunk (one hook decision). *)
val flush : t -> unit

(** [flush_bytes t b ~len] pushes [b[0 .. len-1]] to the file as one
    chunk, after anything {!write} staged: one hook decision for it,
    and no copy into [t]'s staging buffer.  For callers that stage
    their own records (the trace writer).  Fails like {!flush}.
    @raise Invalid_argument when [len] is out of [b]'s bounds. *)
val flush_bytes : t -> Bytes.t -> len:int -> unit

(** {!flush}, then [fsync] (one hook decision each). *)
val fsync : t -> unit

(** Flush and close.  The descriptor is released even when the flush
    or the hook fails (the exception is re-raised after). *)
val close : t -> unit

(** Close, suppressing every error (the descriptor is released). *)
val close_noerr : t -> unit

(** {2 Whole-file helpers} *)

(** Atomic rename (consults the hook). *)
val rename : src:string -> dst:string -> unit

(** Suffix appended by {!temp_path} ([".tmp"]). *)
val temp_suffix : string

(** The sibling temp path for [path] ([path ^ ".tmp"]). *)
val temp_path : string -> string

val is_temp_path : string -> bool

(** [write_file_atomic ~path data] — write [data] to
    [temp_path path], [fsync] it, atomically [rename] it over [path],
    then best-effort [fsync] the directory.  On any failure the temp
    file is unlinked and the previous contents of [path] (if any) are
    untouched: readers see either the old file or the new one, never
    a torn mix.  The {!Io_error} names [path], whichever step failed. *)
val write_file_atomic : path:string -> string -> unit
