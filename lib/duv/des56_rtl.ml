open Tabv_sim

type state =
  | Idle
  | Busy of {
      mutable round_index : int;  (* rounds already performed *)
      mutable l : int64;
      mutable r : int64;
      keys : int64 array;  (* in processing order *)
    }

type fault = Rdy_one_cycle_late

type t = {
  late_rdy : bool;
  ds : bool Signal.t;
  decrypt : bool Signal.t;
  key : int64 Signal.t;
  indata : int64 Signal.t;
  out : int64 Signal.t;
  rdy : bool Signal.t;
  rdy_next_cycle : bool Signal.t;
  rdy_next_next_cycle : bool Signal.t;
  mutable state : state;
  mutable completed : int;
}

let create ?fault kernel clock =
  let el = Elab.create kernel in
  let t =
    {
      late_rdy = fault = Some Rdy_one_cycle_late;
      ds = Elab.signal_bool el "ds";
      decrypt = Elab.signal_bool el "decrypt";
      key = Elab.signal_int64 el "key";
      indata = Elab.signal_int64 el "indata";
      out = Elab.signal_int64 el "out";
      rdy = Elab.signal_bool el "rdy";
      rdy_next_cycle = Elab.signal_bool el "rdy_next_cycle";
      rdy_next_next_cycle = Elab.signal_bool el "rdy_next_next_cycle";
      state = Idle;
      completed = 0;
    }
  in
  let on_posedge () =
    (* Default deassertions; overwritten below when flags are due. *)
    Signal.write t.rdy false;
    Signal.write t.rdy_next_cycle false;
    Signal.write t.rdy_next_next_cycle false;
    match t.state with
    | Idle ->
      if Signal.read t.ds then begin
        let l, r = Des.initial_permutation (Signal.read t.indata) in
        let keys = Des.round_keys (Signal.read t.key) in
        let keys =
          if Signal.read t.decrypt then Array.init 16 (fun i -> keys.(15 - i)) else keys
        in
        t.state <- Busy { round_index = 0; l; r; keys }
      end
    | Busy b ->
      if b.round_index < 16 then begin
        let l', r' = Des.round (b.l, b.r) ~key:b.keys.(b.round_index) in
        b.l <- l';
        b.r <- r'
      end;
      b.round_index <- b.round_index + 1;
      let finish_round = if t.late_rdy then 17 else 16 in
      (match b.round_index with
       | 14 -> Signal.write t.rdy_next_next_cycle true
       | 15 -> Signal.write t.rdy_next_cycle true
       | n when n = finish_round ->
         Signal.write t.out (Des.final_swap_permutation (b.l, b.r));
         Signal.write t.rdy true;
         t.completed <- t.completed + 1;
         t.state <- Idle
       | _ -> ())
  in
  Elab.process el ~name:"des56_rtl" ~pos:__POS__ ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    ~writes:
      [ Elab.Pack t.out;
        Elab.Pack t.rdy;
        Elab.Pack t.rdy_next_cycle;
        Elab.Pack t.rdy_next_next_cycle
      ]
    on_posedge;
  t

let ds t = t.ds
let decrypt t = t.decrypt
let key t = t.key
let indata t = t.indata
let out t = t.out
let rdy t = t.rdy
let rdy_next_cycle t = t.rdy_next_cycle
let rdy_next_next_cycle t = t.rdy_next_next_cycle

let signals t =
  [ ("ds", fun () -> Duv_util.vbool (Signal.read t.ds));
    ("decrypt", fun () -> Duv_util.vbool (Signal.read t.decrypt));
    ("key", fun () -> Duv_util.vdata (Signal.read t.key));
    ("indata", fun () -> Duv_util.vdata (Signal.read t.indata));
    ("out", fun () -> Duv_util.vdata (Signal.read t.out));
    ("rdy", fun () -> Duv_util.vbool (Signal.read t.rdy));
    ("rdy_next_cycle", fun () -> Duv_util.vbool (Signal.read t.rdy_next_cycle));
    ("rdy_next_next_cycle", fun () -> Duv_util.vbool (Signal.read t.rdy_next_next_cycle)) ]

let completed t = t.completed
