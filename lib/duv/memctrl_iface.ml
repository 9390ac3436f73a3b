open Tabv_sim

let write_latency = 2
let read_latency = 3
let clock_period = 10
let address_space = 256

let signal_names = [ "req"; "we"; "addr"; "wdata"; "ack"; "ack_next_cycle"; "rdata" ]
let abstracted_signals = [ "ack_next_cycle" ]

type op =
  | Write of {
      addr : int;
      wdata : int;
    }
  | Read of { addr : int }

let reference_reads ops =
  let memory = Array.make address_space 0 in
  List.filter_map
    (function
      | Write { addr; wdata } ->
        memory.(addr land (address_space - 1)) <- wdata;
        None
      | Read { addr } -> Some memory.(addr land (address_space - 1)))
    ops

type observables = {
  mutable req : bool;
  mutable we : bool;
  mutable addr : int;
  mutable wdata : int;
  mutable ack : bool;
  mutable ack_next_cycle : bool;
  mutable rdata : int;
}

let create_observables () =
  { req = false; we = false; addr = 0; wdata = 0; ack = false;
    ack_next_cycle = false; rdata = 0 }

let signals obs =
  [ ("req", fun () -> Duv_util.vbool obs.req);
    ("we", fun () -> Duv_util.vbool obs.we);
    ("addr", fun () -> Duv_util.vint obs.addr);
    ("wdata", fun () -> Duv_util.vint obs.wdata);
    ("ack", fun () -> Duv_util.vbool obs.ack);
    ("ack_next_cycle", fun () -> Duv_util.vbool obs.ack_next_cycle);
    ("rdata", fun () -> Duv_util.vint obs.rdata) ]

type frame = {
  m_req : bool;
  m_we : bool;
  m_addr : int;
  m_wdata : int;
  mutable m_ack : bool;
  mutable m_ack_next_cycle : bool;
  mutable m_rdata : int;
}

type Tlm.ext += Frame of frame

let make_frame ?(req = false) ?(we = false) ?(addr = 0) ?(wdata = 0) () =
  { m_req = req; m_we = we; m_addr = addr; m_wdata = wdata; m_ack = false;
    m_ack_next_cycle = false; m_rdata = 0 }

type at_response = {
  mutable a_ack : bool;
  mutable a_rdata : int;
}

type Tlm.ext +=
  | At_write of {
      w_addr : int;
      w_data : int;
    }
  | At_read_req of { r_addr : int }
  | At_idle
  | At_collect of at_response
  | At_status of at_response
