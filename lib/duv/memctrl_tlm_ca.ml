open Tabv_sim

type pending =
  | No_op
  | Op of {
      is_write : bool;
      addr : int;
      wdata : int;
      mutable remaining : int;
    }

type t = {
  target : Tlm.Target.t;
  obs : Memctrl_iface.observables;
  memory : int array;
  (* Output registers: the pre-edge view returned by the next frame. *)
  mutable ack_reg : bool;
  mutable ack_nc_reg : bool;
  mutable rdata_reg : int;
  mutable pending : pending;
  mutable completed : int;
}

(* Mirrors the RTL state machine of {!Memctrl_rtl}: the capture frame
   counts as the first cycle. *)
let advance t (frame : Memctrl_iface.frame) =
  t.ack_reg <- false;
  t.ack_nc_reg <- false;
  match t.pending with
  | Op op ->
    op.remaining <- op.remaining - 1;
    if op.remaining = 1 then t.ack_nc_reg <- true
    else if op.remaining = 0 then begin
      if op.is_write then t.memory.(op.addr) <- op.wdata
      else t.rdata_reg <- t.memory.(op.addr);
      t.ack_reg <- true;
      t.completed <- t.completed + 1;
      t.pending <- No_op
    end
  | No_op ->
    if frame.Memctrl_iface.m_req then begin
      let is_write = frame.Memctrl_iface.m_we in
      let latency =
        if is_write then Memctrl_iface.write_latency else Memctrl_iface.read_latency
      in
      let remaining = latency - 1 in
      t.pending <-
        Op
          {
            is_write;
            addr = frame.Memctrl_iface.m_addr land (Memctrl_iface.address_space - 1);
            wdata = frame.Memctrl_iface.m_wdata;
            remaining;
          };
      if remaining = 1 then t.ack_nc_reg <- true
    end

let create kernel =
  let obs = Memctrl_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Memctrl_iface.Frame frame) ->
         frame.Memctrl_iface.m_ack <- t.ack_reg;
         frame.Memctrl_iface.m_ack_next_cycle <- t.ack_nc_reg;
         frame.Memctrl_iface.m_rdata <- t.rdata_reg;
         t.obs.Memctrl_iface.req <- frame.Memctrl_iface.m_req;
         t.obs.Memctrl_iface.we <- frame.Memctrl_iface.m_we;
         t.obs.Memctrl_iface.addr <- frame.Memctrl_iface.m_addr;
         t.obs.Memctrl_iface.wdata <- frame.Memctrl_iface.m_wdata;
         t.obs.Memctrl_iface.ack <- t.ack_reg;
         t.obs.Memctrl_iface.ack_next_cycle <- t.ack_nc_reg;
         t.obs.Memctrl_iface.rdata <- t.rdata_reg;
         advance t frame
       | Some _ | None -> payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"memctrl_tlm_ca" transport in
  let t =
    {
      target;
      obs;
      memory = Array.make Memctrl_iface.address_space 0;
      ack_reg = false;
      ack_nc_reg = false;
      rdata_reg = 0;
      pending = No_op;
      completed = 0;
    }
  in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
