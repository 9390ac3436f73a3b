(** Length-prefixed frame protocol shared by every tabv peer-to-peer
    channel: the subprocess-executor worker pipes and the [tabv serve]
    client sockets.

    One fixed-width header: 2 lowercase hex digits (protocol version)
    + 8 lowercase hex digits (payload byte length) + ['\n'].  Every
    frame names the protocol it speaks, so two ends that disagree
    (different builds on a socket, a worker from another build) fail
    with a {!Protocol_error} naming both versions instead of a garbled
    stream.  Each channel passes its own version to every call. *)

(** Header byte length (2 + 8 hex digits + newline). *)
val versioned_header_length : int

(** [encode ~version payload] — one whole frame.
    @raise Invalid_argument when [version] is outside [[0, 255]]. *)
val encode : version:int -> string -> string

exception Protocol_error of string

(** Write one frame and flush. *)
val write : version:int -> out_channel -> string -> unit

(** Blocking read of one frame.  [None] on a clean EOF at a frame
    boundary.
    @raise Protocol_error on a version mismatch.
    @raise Failure on a malformed header or truncated body. *)
val read : expect_version:int -> in_channel -> string option

(** {2 Incremental frame accumulator}

    For non-blocking reads: feed raw chunks, pop complete frames. *)

type stream

(** [stream ~expect_version ?max_frame ()] — a fresh decoder checking
    the version field of every frame.  With [max_frame] any header
    announcing a body longer than [max_frame] bytes is a
    {!Protocol_error} the moment the header is decoded — without it a
    single corrupted length prefix would make the decoder buffer up to
    4 GiB waiting for a body that never comes.
    @raise Invalid_argument when [max_frame < 0]. *)
val stream : expect_version:int -> ?max_frame:int -> unit -> stream

(** Bytes currently buffered (useful to detect a partial trailing
    frame after EOF). *)
val stream_length : stream -> int

val feed : stream -> string -> unit

(** Pop the next complete frame, if any.
    @raise Protocol_error on a malformed buffered header, a version
    mismatch, or a body length over the stream's [max_frame]. *)
val pop : stream -> string option
