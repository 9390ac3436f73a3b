open Tabv_sim

type t = {
  target : Tlm.Target.t;
  obs : Des56_iface.observables;
  mutable completed : int;
}

let create kernel =
  let obs = Des56_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Des56_iface.At_write request) ->
         (* Loosely timed: compute and deliver within the call. *)
         let result =
           Des.process ~decrypt:request.Des56_iface.a_decrypt
             ~key:request.Des56_iface.a_key request.Des56_iface.a_indata
         in
         t.completed <- t.completed + 1;
         t.obs.Des56_iface.ds <- true;
         t.obs.Des56_iface.decrypt_obs <- request.Des56_iface.a_decrypt;
         t.obs.Des56_iface.key_obs <- request.Des56_iface.a_key;
         t.obs.Des56_iface.indata <- request.Des56_iface.a_indata;
         t.obs.Des56_iface.out <- result;
         t.obs.Des56_iface.rdy <- true;
         payload.Tlm.data <- result
       | Some Des56_iface.At_idle ->
         t.obs.Des56_iface.ds <- false;
         t.obs.Des56_iface.rdy <- false
       | Some (Des56_iface.At_read _ | Des56_iface.At_status _) | Some _ | None ->
         payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"des56_tlm_lt" transport in
  let t = { target; obs; completed = 0 } in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
