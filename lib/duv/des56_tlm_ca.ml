open Tabv_sim

type t = {
  target : Tlm.Target.t;
  obs : Des56_iface.observables;
  (* Output registers (pre-edge view returned by the next frame). *)
  mutable out_reg : int64;
  mutable rdy_reg : bool;
  mutable rdy_nc_reg : bool;
  mutable rdy_nnc_reg : bool;
  (* Operation in flight. *)
  mutable busy : bool;
  mutable countdown : int;
  mutable result : int64;
  mutable completed : int;
}

let advance t (frame : Des56_iface.frame) =
  (* One-cycle pulses. *)
  t.rdy_reg <- false;
  t.rdy_nc_reg <- false;
  t.rdy_nnc_reg <- false;
  if t.busy then begin
    t.countdown <- t.countdown - 1;
    (match t.countdown with
     | 2 -> t.rdy_nnc_reg <- true
     | 1 -> t.rdy_nc_reg <- true
     | 0 ->
       t.out_reg <- t.result;
       t.rdy_reg <- true;
       t.busy <- false;
       t.completed <- t.completed + 1
     | _ -> ())
  end
  else if frame.Des56_iface.f_ds then begin
    t.busy <- true;
    (* The load edge plus 16 rounds: rdy visible 17 frames later. *)
    t.countdown <- Des56_iface.latency - 1;
    t.result <-
      Des.process ~decrypt:frame.Des56_iface.f_decrypt ~key:frame.Des56_iface.f_key
        frame.Des56_iface.f_indata
  end

let create kernel =
  let obs = Des56_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Des56_iface.Frame frame) ->
         (* Pre-edge outputs. *)
         frame.Des56_iface.f_out <- t.out_reg;
         frame.Des56_iface.f_rdy <- t.rdy_reg;
         frame.Des56_iface.f_rdy_next_cycle <- t.rdy_nc_reg;
         frame.Des56_iface.f_rdy_next_next_cycle <- t.rdy_nnc_reg;
         (* Mirror the observable interface as seen at this cycle. *)
         t.obs.Des56_iface.ds <- frame.Des56_iface.f_ds;
         t.obs.Des56_iface.decrypt_obs <- frame.Des56_iface.f_decrypt;
         t.obs.Des56_iface.key_obs <- frame.Des56_iface.f_key;
         t.obs.Des56_iface.indata <- frame.Des56_iface.f_indata;
         t.obs.Des56_iface.out <- t.out_reg;
         t.obs.Des56_iface.rdy <- t.rdy_reg;
         t.obs.Des56_iface.rdy_next_cycle <- t.rdy_nc_reg;
         t.obs.Des56_iface.rdy_next_next_cycle <- t.rdy_nnc_reg;
         (* Advance one cycle. *)
         advance t frame
       | Some _ | None ->
         payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"des56_tlm_ca" transport in
  let t =
    {
      target;
      obs;
      out_reg = 0L;
      rdy_reg = false;
      rdy_nc_reg = false;
      rdy_nnc_reg = false;
      busy = false;
      countdown = 0;
      result = 0L;
      completed = 0;
    }
  in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
