(** The subprocess executor's worker half.

    A worker is the same binary re-executed with a hidden [_worker]
    first argument; {!main} turns the process into a frame server:
    read one request envelope from stdin, run it, write one reply
    frame to stdout, repeat until EOF (the coordinator closing our
    stdin is the shutdown signal).  Frames carry
    {!Executor.frame_version}.

    The op contract, for every {!Executor.op} the binary hands {!main}:
    {ul
    {- the request is [{"op":name,"attempt":n,"spec":s}], with [s] the
       op's spec codec's JSON;}
    {- the reply is [{"ok":r}], with [r] the result codec's JSON of
       [run spec ~attempt], or [{"error":message}];}
    {- a request that does not decode — not JSON, an unknown op, a
       spec the op's codec refuses — is answered
       [{"error":"worker: ..."}] without running anything, and the
       worker keeps serving;}
    {- an ordinary exception from [run] is answered with exactly what
       the in-domain executor would have recorded
       ([Printexc.to_string]) — that is what keeps reports
       byte-identical across executors.  Hard failures (abort,
       allocation storm, busy loop, segfaults) never produce a reply:
       the coordinator observes the process's death instead.}} *)

(** [main ops] serves requests for [ops] from stdin to stdout (binary
    mode) until EOF — the entire behaviour of [<binary> _worker].
    @raise Failure on a malformed frame (a broken coordinator). *)
val main : Executor.any_op list -> unit
