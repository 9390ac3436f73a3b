open Tabv_sim

(* The pipeline boundary registers are kernel signals: each clock edge
   reads the previous boundary's (pre-edge) payload and schedules the
   staged payload into the next boundary, exactly like an RTL register
   chain. *)
type t = {
  dv : bool Signal.t;
  r : int Signal.t;
  g : int Signal.t;
  b : int Signal.t;
  ovalid : bool Signal.t;
  y : int Signal.t;
  cb : int Signal.t;
  cr : int Signal.t;
  valids : bool Signal.t array;
  pipe : Colorconv.stage_state option Signal.t array;  (* boundary k: after stage k *)
  mutable completed : int;
}

let create kernel clock =
  let el = Elab.create kernel in
  let t =
    {
      dv = Elab.signal_bool el "dv";
      r = Elab.signal_int el "r";
      g = Elab.signal_int el "g";
      b = Elab.signal_int el "b";
      ovalid = Elab.signal_bool el "ovalid";
      y = Elab.signal_int el "y";
      cb = Elab.signal_int el "cb";
      cr = Elab.signal_int el "cr";
      valids =
        Array.init 7 (fun i -> Elab.signal_bool el (Printf.sprintf "v%d" (i + 1)));
      pipe =
        Array.init 7 (fun i ->
            Elab.signal el ~init:None (Printf.sprintf "pipe%d" i));
      completed = 0;
    }
  in
  let on_posedge () =
    (* Final stage and output registers, from the pre-edge boundary 6. *)
    (match Signal.read t.pipe.(6) with
     | Some state ->
       let { Colorconv.y; cb; cr } = Colorconv.stage_out (Colorconv.stage 7 state) in
       Signal.write t.y y;
       Signal.write t.cb cb;
       Signal.write t.cr cr;
       Signal.write t.ovalid true;
       t.completed <- t.completed + 1
     | None -> Signal.write t.ovalid false);
    (* Register chain: boundary k latches staged boundary k-1. *)
    for slot = 6 downto 1 do
      let staged =
        match Signal.read t.pipe.(slot - 1) with
        | Some state -> Some (Colorconv.stage slot state)
        | None -> None
      in
      Signal.write t.pipe.(slot) staged;
      Signal.write t.valids.(slot) (staged <> None)
    done;
    let admitted =
      if Signal.read t.dv then
        Some
          (Colorconv.stage_in
             { Colorconv.r = Signal.read t.r; g = Signal.read t.g; b = Signal.read t.b })
      else None
    in
    Signal.write t.pipe.(0) admitted;
    Signal.write t.valids.(0) (admitted <> None)
  in
  Elab.process el ~name:"colorconv_rtl" ~pos:__POS__ ~initialize:false
    ~sensitivity:[ Clock.posedge clock ]
    ~writes:
      ([ Elab.Pack t.ovalid; Elab.Pack t.y; Elab.Pack t.cb; Elab.Pack t.cr ]
      @ Array.to_list (Array.map (fun s -> Elab.Pack s) t.valids)
      @ Array.to_list (Array.map (fun s -> Elab.Pack s) t.pipe))
    on_posedge;
  t

let dv t = t.dv
let r t = t.r
let g t = t.g
let b t = t.b
let ovalid t = t.ovalid
let y t = t.y
let cb t = t.cb
let cr t = t.cr
let valids t = t.valids

let signals t =
  [ ("dv", fun () -> Duv_util.vbool (Signal.read t.dv));
    ("r", fun () -> Duv_util.vint (Signal.read t.r));
    ("g", fun () -> Duv_util.vint (Signal.read t.g));
    ("b", fun () -> Duv_util.vint (Signal.read t.b));
    ("ovalid", fun () -> Duv_util.vbool (Signal.read t.ovalid));
    ("y", fun () -> Duv_util.vint (Signal.read t.y));
    ("cb", fun () -> Duv_util.vint (Signal.read t.cb));
    ("cr", fun () -> Duv_util.vint (Signal.read t.cr)) ]
  @ List.mapi
      (fun i name -> (name, fun () -> Duv_util.vbool (Signal.read t.valids.(i))))
      Colorconv_iface.valid_names
let completed t = t.completed
