open Tabv_sim

type slot = {
  result : Colorconv.ycbcr;
}

type t = {
  target : Tlm.Target.t;
  obs : Colorconv_iface.observables;
  (* Pipeline occupancy: slot k mirrors the RTL pipe register k. *)
  slots : slot option array;  (* length 7 *)
  (* Output registers (pre-edge view). *)
  mutable ovalid_reg : bool;
  mutable y_reg : int;
  mutable cb_reg : int;
  mutable cr_reg : int;
  mutable completed : int;
}

let advance t (frame : Colorconv_iface.frame) =
  (* Output stage: slot 6 completes. *)
  (match t.slots.(6) with
   | Some { result } ->
     t.y_reg <- result.Colorconv.y;
     t.cb_reg <- result.Colorconv.cb;
     t.cr_reg <- result.Colorconv.cr;
     t.ovalid_reg <- true;
     t.completed <- t.completed + 1
   | None -> t.ovalid_reg <- false);
  for slot = 6 downto 1 do
    t.slots.(slot) <- t.slots.(slot - 1)
  done;
  t.slots.(0) <-
    (if frame.Colorconv_iface.c_dv then
       Some
         {
           result =
             Colorconv.convert
               { Colorconv.r = frame.Colorconv_iface.c_r;
                 g = frame.Colorconv_iface.c_g;
                 b = frame.Colorconv_iface.c_b };
         }
     else None)

let create kernel =
  let obs = Colorconv_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Colorconv_iface.Frame frame) ->
         (* Pre-edge outputs. *)
         frame.Colorconv_iface.c_ovalid <- t.ovalid_reg;
         frame.Colorconv_iface.c_y <- t.y_reg;
         frame.Colorconv_iface.c_cb <- t.cb_reg;
         frame.Colorconv_iface.c_cr <- t.cr_reg;
         frame.Colorconv_iface.c_valids <-
           Array.map (fun slot -> slot <> None) t.slots;
         (* Mirror. *)
         t.obs.Colorconv_iface.dv <- frame.Colorconv_iface.c_dv;
         t.obs.Colorconv_iface.r <- frame.Colorconv_iface.c_r;
         t.obs.Colorconv_iface.g <- frame.Colorconv_iface.c_g;
         t.obs.Colorconv_iface.b <- frame.Colorconv_iface.c_b;
         t.obs.Colorconv_iface.ovalid <- t.ovalid_reg;
         t.obs.Colorconv_iface.y <- t.y_reg;
         t.obs.Colorconv_iface.cb <- t.cb_reg;
         t.obs.Colorconv_iface.cr <- t.cr_reg;
         t.obs.Colorconv_iface.valids <- Array.copy frame.Colorconv_iface.c_valids;
         advance t frame
       | Some _ | None -> payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"colorconv_tlm_ca" transport in
  let t =
    {
      target;
      obs;
      slots = Array.make 7 None;
      ovalid_reg = false;
      y_reg = 0;
      cb_reg = 0;
      cr_reg = 0;
      completed = 0;
    }
  in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
