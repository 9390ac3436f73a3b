open Tabv_sim

type pending =
  | No_op
  | Op of {
      is_write : bool;
      addr : int;
      wdata : int;
      ready_time : int;
    }

type t = {
  kernel : Kernel.t;
  target : Tlm.Target.t;
  obs : Memctrl_iface.observables;
  write_latency_ns : int;
  read_latency_ns : int;
  memory : int array;
  mutable pending : pending;
  mutable completed : int;
}

let create ?write_latency_ns ?read_latency_ns kernel =
  let default l = l * Memctrl_iface.clock_period in
  let write_latency_ns =
    Option.value write_latency_ns ~default:(default Memctrl_iface.write_latency)
  in
  let read_latency_ns =
    Option.value read_latency_ns ~default:(default Memctrl_iface.read_latency)
  in
  let obs = Memctrl_iface.create_observables () in
  let t_ref = ref None in
  let transport payload =
    match !t_ref with
    | None -> assert false
    | Some t ->
      (match payload.Tlm.extension with
       | Some (Memctrl_iface.At_write { w_addr; w_data }) ->
         t.pending <-
           Op
             {
               is_write = true;
               addr = w_addr land (Memctrl_iface.address_space - 1);
               wdata = w_data;
               ready_time = Kernel.now t.kernel + t.write_latency_ns;
             };
         t.obs.Memctrl_iface.req <- true;
         t.obs.Memctrl_iface.we <- true;
         t.obs.Memctrl_iface.addr <- w_addr;
         t.obs.Memctrl_iface.wdata <- w_data;
         t.obs.Memctrl_iface.ack <- false
       | Some (Memctrl_iface.At_read_req { r_addr }) ->
         t.pending <-
           Op
             {
               is_write = false;
               addr = r_addr land (Memctrl_iface.address_space - 1);
               wdata = 0;
               ready_time = Kernel.now t.kernel + t.read_latency_ns;
             };
         t.obs.Memctrl_iface.req <- true;
         t.obs.Memctrl_iface.we <- false;
         t.obs.Memctrl_iface.addr <- r_addr;
         t.obs.Memctrl_iface.ack <- false
       | Some Memctrl_iface.At_idle -> t.obs.Memctrl_iface.req <- false
       | Some (Memctrl_iface.At_collect response) ->
         (match t.pending with
          | No_op -> payload.Tlm.response_ok <- false
          | Op op ->
            let now = Kernel.now t.kernel in
            if now < op.ready_time then Process.wait_ns t.kernel (op.ready_time - now);
            if op.is_write then t.memory.(op.addr) <- op.wdata
            else begin
              response.Memctrl_iface.a_rdata <- t.memory.(op.addr);
              t.obs.Memctrl_iface.rdata <- t.memory.(op.addr)
            end;
            response.Memctrl_iface.a_ack <- true;
            t.pending <- No_op;
            t.completed <- t.completed + 1;
            t.obs.Memctrl_iface.req <- false;
            t.obs.Memctrl_iface.ack <- true)
       | Some (Memctrl_iface.At_status response) ->
         response.Memctrl_iface.a_ack <- false;
         t.obs.Memctrl_iface.ack <- false
       | Some _ | None -> payload.Tlm.response_ok <- false)
  in
  let target = Tlm.Target.create kernel ~name:"memctrl_tlm_at" transport in
  let t =
    {
      kernel;
      target;
      obs;
      write_latency_ns;
      read_latency_ns;
      memory = Array.make Memctrl_iface.address_space 0;
      pending = No_op;
      completed = 0;
    }
  in
  t_ref := Some t;
  t

let target t = t.target
let observables t = t.obs
let completed t = t.completed
