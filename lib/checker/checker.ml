open Tabv_psl
open Tabv_sim

module Attach = struct
  type mode =
    | Clock_edge of {
        clock : Clock.t;
        clocks : (string * Clock.t) list;
      }
    | Transaction of Tlm.Initiator.t
    | Transaction_unabstracted of Tlm.Initiator.t
    | Grid of {
        clock_period : int;
        phase : int;
      }

  type spec = {
    sampler : Sampler.t;
    mode : mode;
    metrics : Tabv_obs.Metrics.t option;
  }

  let spec ?metrics sampler mode = { sampler; mode; metrics }
  let clock_edge ?(clocks = []) clock = Clock_edge { clock; clocks }
  let transaction initiator = Transaction initiator
  let transaction_unabstracted initiator = Transaction_unabstracted initiator

  let grid ?(phase = 1) ~clock_period () =
    if clock_period <= 0 then
      invalid_arg "Checker.Attach.grid: clock_period must be positive";
    Grid { clock_period; phase }
end

type t = {
  monitor : Monitor.t;
  max_eps : int;
}

let require_transaction_context ~what property =
  match property.Property.context with
  | Context.Transaction _ -> ()
  | Context.Clock _ ->
    invalid_arg
      (Printf.sprintf "Checker.attach (%s): property %s has a clock context"
         what property.Property.name)

let require_clock_context ~what property =
  match property.Property.context with
  | Context.Clock _ -> ()
  | Context.Transaction _ ->
    invalid_arg
      (Printf.sprintf
         "Checker.attach (%s): property %s has a transaction context" what
         property.Property.name)

(* The clock events a clock-edge property samples at. *)
let sampling_events ~clock ~clocks property =
  require_clock_context ~what:"clock-edge" property;
  let sampling_clock, edge =
    match property.Property.context with
    | Context.Clock Context.Base_clock -> (clock, Context.Posedge)
    | Context.Clock (Context.Edge e) | Context.Clock (Context.Edge_and (e, _)) ->
      (clock, e)
    | Context.Clock
        (Context.Named_edge (name, e) | Context.Named_edge_and (name, e, _)) ->
      (match List.assoc_opt name clocks with
       | Some named_clock -> (named_clock, e)
       | None ->
         invalid_arg
           (Printf.sprintf "Checker.attach: property %s names unknown clock %S"
              property.Property.name name))
    | Context.Transaction _ -> assert false (* required above *)
  in
  match edge with
  | Context.Posedge -> [ Clock.posedge sampling_clock ]
  | Context.Negedge -> [ Clock.negedge sampling_clock ]
  | Context.Any_edge -> [ Clock.posedge sampling_clock; Clock.negedge sampling_clock ]

(* One kernel action steps a whole pool (or the subset of it sampling
   at one clock event): the sampler is primed once, then every monitor
   advances in attach order on that prime.  The action keeps the
   bookkeeping one action per monitor had: one kernel activation per
   extra monitor, and per-monitor crash containment when the run asks
   for it.  Only drivers stop a run, never a monitor, so one stop poll
   before the first monitor decides for the whole pool. *)
let step_pool kernel sampler monitors =
  let n = Array.length monitors in
  fun () ->
    let time = Kernel.now kernel in
    let valuation = Sampler.prime_valuation sampler ~time in
    if not (Kernel.stopping kernel) then begin
      Kernel.add_activations kernel (n - 1);
      if Kernel.containing kernel then
        for i = 0 to n - 1 do
          try Monitor.advance (Array.unsafe_get monitors i) ~time ~valuation
          with e -> Kernel.record_crash kernel e
        done
      else
        for i = 0 to n - 1 do
          Monitor.advance (Array.unsafe_get monitors i) ~time ~valuation
        done
    end

(* Clock-edge pools: one action per distinct sampling event, stepping
   the monitors that sample there in attach order.  Every subscription
   of the pool happens here, back to back, so each event's action sits
   exactly where the run of per-monitor handlers used to. *)
let hook_clock_edges kernel sampler monitors events =
  let groups = ref [] in
  List.iter2
    (fun monitor events ->
      List.iter
        (fun event ->
          match List.assq_opt event !groups with
          | Some members -> members := monitor :: !members
          | None -> groups := (event, ref [ monitor ]) :: !groups)
        events)
    monitors events;
  List.iter
    (fun (event, members) ->
      Event.on_event event
        (step_pool kernel sampler (Array.of_list (List.rev !members))))
    (List.rev !groups)

(* Several transactions may end at the same instant; Def. III.2's
   transaction context evaluates the property once per instant, on the
   final observable state, exactly as an RTL checker evaluates once
   per clock edge.  The pool's step is deferred by one delta cycle so
   every same-instant mirror update lands first. *)
let hook_transactions kernel sampler monitors initiator =
  let step = step_pool kernel sampler (Array.of_list monitors) in
  let scheduled_for = ref (-1) in
  Tlm.Initiator.on_transaction initiator (fun _transaction ->
    let now = Kernel.now kernel in
    if !scheduled_for <> now then begin
      scheduled_for := now;
      Kernel.schedule_next_delta kernel step
    end)

(* Grid pools keep one timer per monitor: [kernel.timed_scheduled]
   counts them. *)
let hook_grid kernel sampler monitors ~clock_period ~phase =
  List.iter
    (fun monitor ->
      let rec tick () =
        let time = Kernel.now kernel in
        Monitor.advance monitor ~time
          ~valuation:(Sampler.prime_valuation sampler ~time);
        Kernel.schedule_after kernel ~delay:clock_period tick
      in
      Kernel.schedule_at kernel ~time:phase tick)
    monitors

(* One pull-probe set per pool.  [Metrics.probe] appends, so every pool
   on the kernel contributes to the same registry names: `Sum`
   combiners total across properties, `Max` keeps the worst-case
   instance pressure. *)
let register_metrics metrics monitors =
  let module M = Tabv_obs.Metrics in
  if M.enabled metrics && monitors <> [] then begin
    M.add (M.counter metrics "checker.monitors") (List.length monitors);
    let sum name f =
      M.probe metrics ~combine:`Sum name (fun () ->
          List.fold_left (fun acc m -> acc + f m) 0 monitors)
    and max name f =
      M.probe metrics ~combine:`Max name (fun () ->
          List.fold_left (fun acc m -> Int.max acc (f m)) 0 monitors)
    in
    sum "checker.activations" Monitor.activations;
    sum "checker.passes" Monitor.passes;
    sum "checker.trivial_passes" Monitor.trivial_passes;
    sum "checker.steps" Monitor.steps;
    sum "checker.pending" Monitor.pending;
    sum "checker.cache_hits" Monitor.cache_hits;
    sum "checker.cache_misses" Monitor.cache_misses;
    sum "checker.failures" (fun m -> List.length (Monitor.failures m));
    max "checker.peak_instances" Monitor.peak_instances;
    max "checker.peak_distinct_states" Monitor.peak_distinct_states
  end

let attach (spec : Attach.spec) kernel properties =
  let { Attach.sampler; mode; metrics } = spec in
  (* Validate every property against the mode before synthesizing
     anything. *)
  let hook =
    match mode with
    | Attach.Transaction initiator ->
      List.iter (require_transaction_context ~what:"transaction") properties;
      fun monitors -> hook_transactions kernel sampler monitors initiator
    | Attach.Transaction_unabstracted initiator ->
      List.iter (require_clock_context ~what:"unabstracted") properties;
      fun monitors -> hook_transactions kernel sampler monitors initiator
    | Attach.Grid { clock_period; phase } ->
      if clock_period <= 0 then
        invalid_arg "Checker.attach: clock_period must be positive";
      List.iter (require_transaction_context ~what:"grid") properties;
      fun monitors -> hook_grid kernel sampler monitors ~clock_period ~phase
    | Attach.Clock_edge { clock; clocks } ->
      let events = List.map (sampling_events ~clock ~clocks) properties in
      fun monitors -> hook_clock_edges kernel sampler monitors events
  in
  let monitors = List.map (fun p -> Monitor.create ~sampler p) properties in
  if monitors <> [] then hook monitors;
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Kernel.metrics kernel
  in
  register_metrics metrics monitors;
  List.map2
    (fun property monitor ->
      { monitor; max_eps = Ltl.max_eps property.Property.formula })
    properties monitors

let monitor t = t.monitor
let failures t = Monitor.failures t.monitor
let snapshot t = Monitor.snapshot t.monitor

let array_size t ~clock_period =
  if clock_period <= 0 then
    invalid_arg "Checker.array_size: clock_period must be positive";
  (t.max_eps + clock_period - 1) / clock_period
