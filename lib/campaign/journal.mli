(** Write-ahead journal for resumable campaigns.

    An append-only file of {e completed} job results, one
    CRC32-framed JSONL record per line:
    {v
    <crc32 of body, 8 hex digits> SP <body JSON>
    v}
    The first line's body is a header binding the journal to one job
    list:
    {v
    {"journal":2,"kind":"campaign","fingerprint":"<hex digest>"}
    v}
    and every following body is one record:
    {v
    {"id":<task index>,"record":<record JSON>}
    v}
    ({!Executor.run} writes every record as
    [{"attempts":n,"payload":result}].)
    The header is committed atomically (temp file + [fsync] + rename),
    and each append is flushed as one chunk and [fsync]ed before
    {!append} returns, so a record is either durably on disk or absent.
    On resume, the valid prefix ends at the first incomplete,
    CRC-failing or unparsable record line: the file is truncated back
    to the last valid record and the dropped jobs re-run — a torn
    append, a flipped bit or a lied-about fsync can cost work, but can
    never replay garbage.  A corrupted {e header} is an error (the one
    line that proves the journal belongs to this campaign cannot be
    salvaged).

    Only completed results are journaled.  Crashed / killed / timed-out
    jobs re-run on resume: they are deterministic functions of the job
    spec, so the resumed report stays byte-identical to an
    uninterrupted run — which is the whole contract.  For the same
    reason the record payloads are the exact JSON the report is built
    from (the {!Tabv_core.Report_json} round-trip), never wall-clock
    values.

    The [fingerprint] is a digest of the canonical job-list JSON (plus
    anything else that changes results, e.g. the retry budget).
    Opening with [~resume:true] against a different fingerprint is an
    error — a journal must never graft results from one campaign onto
    another.

    All file IO goes through {!Tabv_core.Io}, so [Fault.Io] plans
    (ENOSPC, EIO, lying fsyncs, power cuts) apply to the journal
    exactly as to every other durable artifact; IO failures surface
    as [Tabv_core.Io.Io_error]. *)

type t

(** [open_ ~path ~kind ~fingerprint ~resume].

    With [resume = false]: truncate/create [path] and write a fresh
    header.  With [resume = true]: read [path] back (missing file =
    empty journal), verify header [kind] and [fingerprint], collect
    the replayable records from the valid prefix (truncating any
    torn / corrupt suffix), and reopen for appending.  [Error] on a
    corrupted or malformed header, wrong kind, or fingerprint
    mismatch — never an exception for bad file contents. *)
val open_ :
  path:string -> kind:string -> fingerprint:string -> resume:bool ->
  (t, string) result

(** Records read back by [open_ ~resume:true], ascending [id].
    Duplicate ids keep the first occurrence. *)
val replayed : t -> (int * Tabv_core.Report_json.json) list

(** Number of records currently in the journal (replayed + appended). *)
val records : t -> int

(** Bytes of torn / corrupt suffix dropped by [open_ ~resume:true]
    ([0] when the file was clean or absent).  The dropped records'
    jobs re-run, so this is lost work, not lost results. *)
val truncated_bytes : t -> int

(** Durably append one completed record ([flush] + [fsync]).
    Domain-safe: the in-domain executor appends from its worker
    domains. *)
val append : t -> id:int -> Tabv_core.Report_json.json -> unit

(** Close the underlying file (idempotent, never raises). *)
val close : t -> unit

(** Canonical fingerprint helper: hex MD5 digest of a canonical
    description string. *)
val fingerprint_of_string : string -> string

(** {2 Shared state directories}

    The serve daemon journals every journaled request into one state
    directory; these helpers keep concurrent requests from colliding
    and the directory from accumulating dead journals. *)

(** [state_path ~dir ~kind ~fingerprint] —
    [dir/<kind>-<fingerprint>.journal].  The fingerprint uniquely
    identifies the job list, so concurrent {e distinct} requests get
    distinct files; identical concurrent requests must be rejected at
    admission instead (interleaved appends from two writers would
    corrupt the record stream). *)
val state_path : dir:string -> kind:string -> fingerprint:string -> string

(** [gc_stale ?now ~dir ~max_age_s ()] — delete every [*.journal]
    regular file in [dir] not modified in the last [max_age_s]
    seconds, plus every orphaned [*.tmp] file regardless of age (a
    temp file with no writer is the debris of a crash between
    temp-write and rename; gc runs at boot, before any concurrent
    writer exists).  Returns the deleted paths (sorted).  A missing
    [dir] is an empty result; entries that vanish or fail to stat
    mid-scan are skipped.  [now] (seconds since the epoch) defaults to
    the current time — tests pass it for determinism. *)
val gc_stale : ?now:float -> dir:string -> max_age_s:float -> unit -> string list
