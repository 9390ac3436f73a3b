open Tabv_sim

let latency = Colorconv.stages
let clock_period = 10

let valid_names = [ "v1"; "v2"; "v3"; "v4"; "v5"; "v6"; "v7" ]

let signal_names =
  [ "dv"; "r"; "g"; "b"; "ovalid"; "y"; "cb"; "cr" ] @ valid_names

let abstracted_signals = valid_names

type observables = {
  mutable dv : bool;
  mutable r : int;
  mutable g : int;
  mutable b : int;
  mutable ovalid : bool;
  mutable y : int;
  mutable cb : int;
  mutable cr : int;
  mutable valids : bool array;
}

let create_observables () =
  {
    dv = false;
    r = 0;
    g = 0;
    b = 0;
    ovalid = false;
    y = 0;
    cb = 0;
    cr = 0;
    valids = Array.make 7 false;
  }

let signals obs =
  [ ("dv", fun () -> Duv_util.vbool obs.dv);
    ("r", fun () -> Duv_util.vint obs.r);
    ("g", fun () -> Duv_util.vint obs.g);
    ("b", fun () -> Duv_util.vint obs.b);
    ("ovalid", fun () -> Duv_util.vbool obs.ovalid);
    ("y", fun () -> Duv_util.vint obs.y);
    ("cb", fun () -> Duv_util.vint obs.cb);
    ("cr", fun () -> Duv_util.vint obs.cr) ]
  @ List.mapi (fun i name -> (name, fun () -> Duv_util.vbool obs.valids.(i))) valid_names

type frame = {
  c_dv : bool;
  c_r : int;
  c_g : int;
  c_b : int;
  mutable c_ovalid : bool;
  mutable c_y : int;
  mutable c_cb : int;
  mutable c_cr : int;
  mutable c_valids : bool array;
}

type Tlm.ext += Frame of frame

let make_frame ?(dv = false) ?(r = 0) ?(g = 0) ?(b = 0) () =
  {
    c_dv = dv;
    c_r = r;
    c_g = g;
    c_b = b;
    c_ovalid = false;
    c_y = 0;
    c_cb = 0;
    c_cr = 0;
    c_valids = Array.make 7 false;
  }

type at_response = {
  mutable a_valid : bool;
  mutable a_y : int;
  mutable a_cb : int;
  mutable a_cr : int;
}

type Tlm.ext +=
  | At_write of Colorconv.pixel
  | At_idle
  | At_read of at_response
  | At_status of at_response
