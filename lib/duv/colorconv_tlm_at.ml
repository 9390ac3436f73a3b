open Tabv_sim

type t = {
  kernel : Kernel.t;
  target : Tlm.Target.t;
  obs : Colorconv_iface.observables;
  pending : (int * Colorconv.ycbcr) Queue.t;  (* (ready_time, result) *)
  mutable completed : int;
}

let pixel_latency_ns = Colorconv_iface.latency * Colorconv_iface.clock_period

let create kernel =
  let obs = Colorconv_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Colorconv_iface.At_write pixel) ->
         let ready_time = Kernel.now t.kernel + pixel_latency_ns in
         Queue.add (ready_time, Colorconv.convert pixel) t.pending;
         t.obs.Colorconv_iface.dv <- true;
         t.obs.Colorconv_iface.r <- pixel.Colorconv.r;
         t.obs.Colorconv_iface.g <- pixel.Colorconv.g;
         t.obs.Colorconv_iface.b <- pixel.Colorconv.b
       | Some Colorconv_iface.At_idle -> t.obs.Colorconv_iface.dv <- false
       | Some (Colorconv_iface.At_read response) ->
         if Queue.is_empty t.pending then payload.Tlm.response_ok <- false
         else begin
           let ready_time, result = Queue.pop t.pending in
           let now = Kernel.now t.kernel in
           if now < ready_time then Process.wait_ns t.kernel (ready_time - now);
           response.Colorconv_iface.a_valid <- true;
           response.Colorconv_iface.a_y <- result.Colorconv.y;
           response.Colorconv_iface.a_cb <- result.Colorconv.cb;
           response.Colorconv_iface.a_cr <- result.Colorconv.cr;
           t.completed <- t.completed + 1;
           t.obs.Colorconv_iface.ovalid <- true;
           t.obs.Colorconv_iface.y <- result.Colorconv.y;
           t.obs.Colorconv_iface.cb <- result.Colorconv.cb;
           t.obs.Colorconv_iface.cr <- result.Colorconv.cr
         end
       | Some (Colorconv_iface.At_status response) ->
         response.Colorconv_iface.a_valid <- false;
         t.obs.Colorconv_iface.ovalid <- false
       | Some _ | None -> payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"colorconv_tlm_at" transport in
  let t = { kernel; target; obs; pending = Queue.create (); completed = 0 } in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
