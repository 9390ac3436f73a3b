(** The subprocess executor's worker half.

    A worker is the same binary re-executed with a hidden [_worker]
    first argument; {!main} turns the process into a frame server:
    read one length-prefixed JSON request from stdin, execute it,
    write one [{"ok": payload}] or [{"error": message}] reply frame to
    stdout, repeat until EOF (the coordinator closing our stdin is the
    shutdown signal).

    Ordinary exceptions during execution become [{"error": ..}]
    replies whose message is exactly what the in-domain executor would
    have recorded ([Printexc.to_string]) — that is what keeps reports
    byte-identical across executors.  Hard failures (abort, allocation
    storm, busy loop, segfaults) never produce a reply: the
    coordinator observes the process's death instead.

    Requests:
    {ul
    {- [{"op":"campaign_job","attempt":n,"job":{..}}] —
       one attempt of one {!Campaign} job
       ({!Campaign.request_json});}
    {- [{"op":"qualify_job","duv":..,"levels":[..],"seed":n,"ops":n,
       "index":i}] — one {!Qualify} pool job by index
       ({!Qualify.request_json});}
    {- any op added with {!register_op} (the serve daemon registers
       ["serve_request"]).}} *)

(** [register_op name decode] — extend the request vocabulary.
    [decode] receives the whole request object and returns the
    execution thunk (or a decode error, answered as [{"error":..}]).
    Layers above this library register their ops before {!main};
    re-registering a name replaces the previous decoder. *)
val register_op :
  string ->
  (Tabv_core.Report_json.json ->
   (unit -> Tabv_core.Report_json.json, string) result) ->
  unit

(** Serve requests from [ic] to [oc] until EOF on [ic].
    @raise Failure on a malformed frame (a broken coordinator). *)
val serve : in_channel -> out_channel -> unit

(** [serve stdin stdout] with both channels in binary mode — the
    entire behaviour of [<binary> _worker].  Every binary that can act
    as a campaign coordinator (the CLI, the test runner, the bench
    runner) dispatches to this before any other argument parsing. *)
val main : unit -> unit
