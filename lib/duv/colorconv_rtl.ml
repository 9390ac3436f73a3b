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
  let t =
    {
      dv = Signal.create_bool kernel ~name:"dv" false;
      r = Signal.create_int kernel ~name:"r" 0;
      g = Signal.create_int kernel ~name:"g" 0;
      b = Signal.create_int kernel ~name:"b" 0;
      ovalid = Signal.create_bool kernel ~name:"ovalid" false;
      y = Signal.create_int kernel ~name:"y" 0;
      cb = Signal.create_int kernel ~name:"cb" 0;
      cr = Signal.create_int kernel ~name:"cr" 0;
      valids =
        Array.init 7 (fun i ->
            Signal.create_bool kernel ~name:(Printf.sprintf "v%d" (i + 1)) false);
      pipe =
        Array.init 7 (fun i ->
            Signal.create kernel ~name:(Printf.sprintf "pipe%d" i) None);
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
  Process.method_process kernel ~name:"colorconv_rtl" ~initialize:false
    ~sensitivity:[ Clock.posedge clock ] on_posedge;
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
