open Tabv_sim

type pending =
  | No_op
  | Op of {
      is_write : bool;
      addr : int;
      wdata : int;
      mutable remaining : int;  (* cycles until ack is written *)
    }

type t = {
  req : bool Signal.t;
  we : bool Signal.t;
  addr : int Signal.t;
  wdata : int Signal.t;
  ack : bool Signal.t;
  ack_next_cycle : bool Signal.t;
  rdata : int Signal.t;
  memory : int array;
  mutable pending : pending;
  mutable completed : int;
}

let create kernel clock =
  let t =
    {
      req = Signal.create_bool kernel ~name:"req" false;
      we = Signal.create_bool kernel ~name:"we" false;
      addr = Signal.create_int kernel ~name:"addr" 0;
      wdata = Signal.create_int kernel ~name:"wdata" 0;
      ack = Signal.create_bool kernel ~name:"ack" false;
      ack_next_cycle = Signal.create_bool kernel ~name:"ack_next_cycle" false;
      rdata = Signal.create_int kernel ~name:"rdata" 0;
      memory = Array.make Memctrl_iface.address_space 0;
      pending = No_op;
      completed = 0;
    }
  in
  let on_posedge () =
    Signal.write t.ack false;
    Signal.write t.ack_next_cycle false;
    match t.pending with
    | Op op ->
      op.remaining <- op.remaining - 1;
      if op.remaining = 1 then Signal.write t.ack_next_cycle true
      else if op.remaining = 0 then begin
        if op.is_write then t.memory.(op.addr) <- op.wdata
        else Signal.write t.rdata t.memory.(op.addr);
        Signal.write t.ack true;
        t.completed <- t.completed + 1;
        t.pending <- No_op
      end
    | No_op ->
      if Signal.read t.req then begin
        let is_write = Signal.read t.we in
        let latency =
          if is_write then Memctrl_iface.write_latency else Memctrl_iface.read_latency
        in
        (* The capture edge counts as the first cycle: ack is visible
           exactly [latency] evaluation points after the request. *)
        let remaining = latency - 1 in
        t.pending <-
          Op
            {
              is_write;
              addr = Signal.read t.addr land (Memctrl_iface.address_space - 1);
              wdata = Signal.read t.wdata;
              remaining;
            };
        if remaining = 1 then Signal.write t.ack_next_cycle true
      end
  in
  Process.method_process kernel ~name:"memctrl_rtl" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ] on_posedge;
  t

let req t = t.req
let we t = t.we
let addr t = t.addr
let wdata t = t.wdata
let ack t = t.ack
let ack_next_cycle t = t.ack_next_cycle
let rdata t = t.rdata

let signals t =
  [ ("req", fun () -> Duv_util.vbool (Signal.read t.req));
    ("we", fun () -> Duv_util.vbool (Signal.read t.we));
    ("addr", fun () -> Duv_util.vint (Signal.read t.addr));
    ("wdata", fun () -> Duv_util.vint (Signal.read t.wdata));
    ("ack", fun () -> Duv_util.vbool (Signal.read t.ack));
    ("ack_next_cycle", fun () -> Duv_util.vbool (Signal.read t.ack_next_cycle));
    ("rdata", fun () -> Duv_util.vint (Signal.read t.rdata)) ]

let completed t = t.completed
