open Tabv_fault

(* {2 Named fault catalog}

   Each named fault is one conceptual design bug, compiled to the
   level-appropriate injection.  At RTL the fault is a saboteur on the
   port signal; at the TLM levels it is a [Corrupt_field] mutator on
   the initiator socket targeting the same-named observable — the
   state the TLM property checkers sample.  [None] marks a level where
   the fault's carrier was abstracted away (e.g. the pipeline
   stage-valids at TLM-AT) or where the model keeps no comparable
   observable (TLM-LT). *)

(* One clock period, ns (all three DUVs use the same reference clock). *)
let period = 10

(* One named fault: the RTL port it corrupts, the TLM observable field
   carrying the same state, and the saboteur on each side. *)
type named = {
  fault : string;
  signal : string;
  field : string;
  at_rtl : Fault.signal_fault;
  at_tlm : Fault.signal_fault;
}

(* The common case: the same saboteur on a same-named field. *)
let named fault signal at_rtl = { fault; signal; field = signal; at_rtl; at_tlm = at_rtl }

let stuck0 = Fault.Stuck_at_0 { from_ns = 0 }
let stuck1 = Fault.Stuck_at_1 { from_ns = 0 }

(* DES56: rdy is written at the edge ending round 16 (t = 160 for an
   op strobed at t = 0 with the standard testbench schedule) and is
   sampled by the checkers one period later.  The RTL glitch window
   [170, 180) covers the update instant of the first result; the TLM
   window [180, 190) covers the transaction-end instant where the
   lens applies.  Both corrupt exactly one observation of [rdy]. *)
let rdy_glitch from = Fault.Glitch { bit = 0; from_ns = from * period; duration_ns = period }

(* In canonical (report) order. *)
let catalog : Models.duv -> named list = function
  | Des56 ->
    [ (* Datapath bug: the result bus reads all-zeroes. *)
      named "out_stuck0" "out" stuck0;
      (* The early-warning flag never asserts (abstracted away at AT). *)
      named "rdy_nc_stuck0" "rdy_next_cycle" stuck0;
      (* A one-observation glitch on the completion handshake. *)
      { (named "rdy_glitch" "rdy" (rdy_glitch 17)) with at_tlm = rdy_glitch 18 };
      (* A transient key-bus upset mid-operation: functionally
         corrupting but invisible to the interface properties — the
         canonical miss. *)
      { (named "key_flip" "key" (Fault.Bit_flip { bit = 5; at_ns = 4 * period })) with
        field = "key_obs" };
      (* Same bug as out_stuck0, armed long after the workload ends:
         the canonical latent fault (never exercised). *)
      named "out_stuck0_late" "out" (Fault.Stuck_at_0 { from_ns = 1_000_000_000 }) ]
  | Colorconv ->
    [ (* Output handshake dead: no pixel is ever flagged valid. *)
      named "ovalid_stuck0" "ovalid" stuck0;
      (* Luma bus stuck high: 255 is outside the ITU-R range [16, 235]. *)
      named "y_stuck1" "y" stuck1;
      (* A mid-pipeline occupancy flag dies; its carrier (v3) is
         removed by the RTL-to-TLM-AT abstraction. *)
      named "v3_stuck0" "v3" stuck0 ]
  | Memctrl ->
    [ (* Completion handshake dead at every level. *)
      named "ack_stuck0" "ack" stuck0;
      (* Early-warning flag dead (abstracted away at TLM-AT). *)
      named "ack_nc_stuck0" "ack_next_cycle" stuck0;
      (* Read-data bus stuck high: corrupts data but no interface
         property checks read values against an oracle — a designed-in
         miss. *)
      named "rdata_stuck1" "rdata" stuck1 ]

let fault_names duv = List.map (fun f -> f.fault) (catalog duv)

(* The initiator socket of [duv]'s model at [level]; [None] at RTL or
   where the DUV has no model at that level. *)
let socket_of duv level = Option.bind (Models.of_duv_level duv level) Models.socket

let plan_for duv (level : Models.level) name =
  let f =
    match List.find_opt (fun f -> f.fault = name) (catalog duv) with
    | Some f -> f
    | None ->
      invalid_arg
        (Printf.sprintf "Duv_fault.plan_for: unknown %s fault %S" (Models.duv_name duv)
           name)
  in
  let field_plan socket =
    Fault.plan ~name
      [ Fault.Tlm_mutation
          { socket; fault = Fault.Corrupt_field { field = f.field; fault = f.at_tlm } } ]
  in
  match level, socket_of duv level with
  | Rtl, _ ->
    Some (Fault.plan ~name [ Fault.Signal_fault { signal = f.signal; fault = f.at_rtl } ])
  | Tlm_ca, Some socket -> Some (field_plan socket)
  | Tlm_at, Some socket when not (List.mem f.signal (Models.abstracted_signals duv)) ->
    Some (field_plan socket)
  | (Tlm_ca | Tlm_at | Tlm_lt), _ -> None

(* {2 Chaos / resilience plans} *)

let crash_plan ~at_ns ~name =
  Fault.plan ~name:"chaos-crash" [ Fault.Chaos (Fault.Crash { at_ns; name }) ]

let livelock_plan ~at_ns =
  Fault.plan ~name:"chaos-livelock" [ Fault.Chaos (Fault.Livelock_loop { at_ns }) ]

let hang_plan duv level ~index =
  Option.map
    (fun socket ->
      Fault.plan ~name:"chaos-hang"
        [ Fault.Tlm_mutation { socket; fault = Fault.Hang { index } } ])
    (socket_of duv level)
