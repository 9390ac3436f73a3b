open Tabv_psl

let over_seq properties entries =
  (* The current sample's env: the pool's sampler resolves every
     signal through it. *)
  let env = ref [] in
  let sampler = Sampler.create (Expr.env_resolver env) in
  let monitors = List.map (fun p -> Monitor.create ~sampler p) properties in
  let valuation = ref (-1) in
  Seq.iter
    (function
      | Tabv_trace.Entry.Span _ -> ()
      | Tabv_trace.Entry.Sample { time; env = sample } ->
        (* The same env list again holds the same values, so its
           valuation stands and no atom needs sampling.  An empty env
           is the initial one: its valuation stays unknown, and every
           monitor takes a plain step. *)
        if sample != !env then begin
          env := sample;
          valuation := Sampler.prime_valuation sampler ~time
        end;
        let valuation = !valuation in
        List.iter (fun m -> Monitor.advance m ~time ~valuation) monitors)
    entries;
  monitors

let over_trace properties trace =
  over_seq properties (Tabv_trace.Entry.of_trace trace)

let over_file properties path =
  Tabv_trace.Reader.with_file path (fun reader ->
      over_seq properties (Tabv_trace.Reader.to_seq reader))

let snapshots monitors = List.map Monitor.snapshot monitors
