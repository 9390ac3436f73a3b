open Tabv_sim

type state =
  | Idle
  | Busy of {
      mutable round_index : int;  (* rounds already performed *)
      mutable l : int64;
      mutable r : int64;
      keys : int64 array;  (* in encryption order *)
      decrypting : bool;  (* take [keys] backwards *)
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
  let t =
    {
      late_rdy = fault = Some Rdy_one_cycle_late;
      ds = Signal.create_bool kernel ~name:"ds" false;
      decrypt = Signal.create_bool kernel ~name:"decrypt" false;
      key = Signal.create_int64 kernel ~name:"key" 0L;
      indata = Signal.create_int64 kernel ~name:"indata" 0L;
      out = Signal.create_int64 kernel ~name:"out" 0L;
      rdy = Signal.create_bool kernel ~name:"rdy" false;
      rdy_next_cycle = Signal.create_bool kernel ~name:"rdy_next_cycle" false;
      rdy_next_next_cycle = Signal.create_bool kernel ~name:"rdy_next_next_cycle" false;
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
        t.state <-
          Busy { round_index = 0; l; r; keys; decrypting = Signal.read t.decrypt }
      end
    | Busy b ->
      if b.round_index < 16 then begin
        let k = if b.decrypting then 15 - b.round_index else b.round_index in
        let l', r' = Des.round (b.l, b.r) ~key:b.keys.(k) in
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
  Process.method_process kernel ~name:"des56_rtl" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ] on_posedge;
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
