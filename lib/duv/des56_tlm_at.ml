open Tabv_sim

type t = {
  kernel : Kernel.t;
  target : Tlm.Target.t;
  obs : Des56_iface.observables;
  latency_ns : int;
  mutable ready_time : int;
  mutable result : int64;
  mutable have_op : bool;
  mutable completed : int;
}

let op_latency_ns = Des56_iface.latency * Des56_iface.clock_period

let create ?(latency_ns = op_latency_ns) kernel =
  let obs = Des56_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Des56_iface.At_write request) ->
         t.result <-
           Des.process ~decrypt:request.Des56_iface.a_decrypt
             ~key:request.Des56_iface.a_key request.Des56_iface.a_indata;
         t.ready_time <- Kernel.now t.kernel + t.latency_ns;
         t.have_op <- true;
         (* Observable state at the strobe instant. *)
         t.obs.Des56_iface.ds <- true;
         t.obs.Des56_iface.decrypt_obs <- request.Des56_iface.a_decrypt;
         t.obs.Des56_iface.key_obs <- request.Des56_iface.a_key;
         t.obs.Des56_iface.indata <- request.Des56_iface.a_indata;
         t.obs.Des56_iface.rdy <- false
       | Some Des56_iface.At_idle ->
         t.obs.Des56_iface.ds <- false
       | Some (Des56_iface.At_read response) ->
         if not t.have_op then payload.Tlm.response_ok <- false
         else begin
           let now = Kernel.now t.kernel in
           if now < t.ready_time then Process.wait_ns t.kernel (t.ready_time - now);
           response.Des56_iface.a_out <- t.result;
           response.Des56_iface.a_rdy <- true;
           t.have_op <- false;
           t.completed <- t.completed + 1;
           t.obs.Des56_iface.ds <- false;
           t.obs.Des56_iface.out <- t.result;
           t.obs.Des56_iface.rdy <- true
         end
       | Some (Des56_iface.At_status response) ->
         response.Des56_iface.a_rdy <- false;
         t.obs.Des56_iface.ds <- false;
         t.obs.Des56_iface.rdy <- false
       | Some _ | None -> payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"des56_tlm_at" transport in
  let t =
    {
      kernel;
      target;
      obs;
      latency_ns;
      ready_time = 0;
      result = 0L;
      have_op = false;
      completed = 0;
    }
  in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
