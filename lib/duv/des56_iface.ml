open Tabv_sim

let latency = 17
let clock_period = 10

let signal_names =
  [ "ds"; "decrypt"; "key"; "indata"; "out"; "rdy"; "rdy_next_cycle";
    "rdy_next_next_cycle" ]

type op = {
  decrypt : bool;
  key : int64;
  indata : int64;
}

type observables = {
  mutable ds : bool;
  mutable decrypt_obs : bool;
  mutable key_obs : int64;
  mutable indata : int64;
  mutable out : int64;
  mutable rdy : bool;
  mutable rdy_next_cycle : bool;
  mutable rdy_next_next_cycle : bool;
}

let create_observables () =
  {
    ds = false;
    decrypt_obs = false;
    key_obs = 0L;
    indata = 0L;
    out = 0L;
    rdy = false;
    rdy_next_cycle = false;
    rdy_next_next_cycle = false;
  }

let signals obs =
  [ ("ds", fun () -> Duv_util.vbool obs.ds);
    ("decrypt", fun () -> Duv_util.vbool obs.decrypt_obs);
    ("key", fun () -> Duv_util.vdata obs.key_obs);
    ("indata", fun () -> Duv_util.vdata obs.indata);
    ("out", fun () -> Duv_util.vdata obs.out);
    ("rdy", fun () -> Duv_util.vbool obs.rdy);
    ("rdy_next_cycle", fun () -> Duv_util.vbool obs.rdy_next_cycle);
    ("rdy_next_next_cycle", fun () -> Duv_util.vbool obs.rdy_next_next_cycle) ]

type frame = {
  f_ds : bool;
  f_decrypt : bool;
  f_key : int64;
  f_indata : int64;
  mutable f_out : int64;
  mutable f_rdy : bool;
  mutable f_rdy_next_cycle : bool;
  mutable f_rdy_next_next_cycle : bool;
}

type Tlm.ext += Frame of frame

let make_frame ?(ds = false) ?(decrypt = false) ?(key = 0L) ?(indata = 0L) () =
  {
    f_ds = ds;
    f_decrypt = decrypt;
    f_key = key;
    f_indata = indata;
    f_out = 0L;
    f_rdy = false;
    f_rdy_next_cycle = false;
    f_rdy_next_next_cycle = false;
  }

type at_request = {
  a_decrypt : bool;
  a_key : int64;
  a_indata : int64;
}

type at_response = {
  mutable a_out : int64;
  mutable a_rdy : bool;
}

type Tlm.ext +=
  | At_write of at_request
  | At_idle
  | At_read of at_response
  | At_status of at_response
