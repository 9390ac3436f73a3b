open Tabv_psl
open Tabv_sim
open Tabv_checker
module Fault = Tabv_fault.Fault

type sampling =
  | Clock_edge of Clock.t
  | Frames of Tlm.Initiator.t
  | Transactions of {
      initiator : Tlm.Initiator.t;
      grid_period : int option;
    }

type elaborated = {
  sampling : sampling;
  signals : Duv_util.signals;
  binding : Fault.binding;
  completed : unit -> int;
  collect : (unit -> unit) option;
  drive : unit -> unit;
}

type 'w model = {
  socket : string option;
  elaborate :
    Kernel.t -> gap_cycles:int -> emit:(int64 -> unit) -> 'w -> elaborated;
}

let period = 10

let rtl elaborate =
  { socket = None;
    elaborate =
      (fun kernel -> elaborate kernel (Clock.create kernel ~name:"clk" ~period ()))
  }

let tlm ~socket elaborate =
  { socket = Some socket;
    elaborate =
      (fun kernel -> elaborate kernel (Tlm.Initiator.create kernel ~name:socket))
  }

(* --- fault bindings --------------------------------------------------

   At RTL the port signals are the saboteur targets.  At the TLM levels
   the initiator socket takes the mutators and the model's observables
   record provides the lenses for [Corrupt_field]: corruption lands on
   exactly the state the property checkers sample (one delta after
   transport), so no DUV logic is touched at any level. *)

let bool_lens get set =
  { Fault.get = (fun () -> if get () then 1L else 0L);
    set = (fun v -> set (Int64.logand v 1L <> 0L));
    width = 1
  }

let int_lens ~width get set =
  { Fault.get = (fun () -> Int64.of_int (get ()));
    set = (fun v -> set (Int64.to_int v));
    width
  }

let int64_lens get set = { Fault.get; set; width = 64 }

let rtl_binding kernel signals = { Fault.kernel; signals; sockets = [] }

let tlm_binding kernel initiator fields =
  { Fault.kernel;
    signals = [];
    sockets = [ (Tlm.Initiator.name initiator, { Fault.initiator; fields }) ]
  }

let des56_fields (obs : Des56_iface.observables) =
  [ ("ds", bool_lens (fun () -> obs.ds) (fun v -> obs.ds <- v));
    ( "decrypt_obs",
      bool_lens (fun () -> obs.decrypt_obs) (fun v -> obs.decrypt_obs <- v) );
    ("key_obs", int64_lens (fun () -> obs.key_obs) (fun v -> obs.key_obs <- v));
    ("indata", int64_lens (fun () -> obs.indata) (fun v -> obs.indata <- v));
    ("out", int64_lens (fun () -> obs.out) (fun v -> obs.out <- v));
    ("rdy", bool_lens (fun () -> obs.rdy) (fun v -> obs.rdy <- v));
    ( "rdy_next_cycle",
      bool_lens (fun () -> obs.rdy_next_cycle) (fun v -> obs.rdy_next_cycle <- v) );
    ( "rdy_next_next_cycle",
      bool_lens
        (fun () -> obs.rdy_next_next_cycle)
        (fun v -> obs.rdy_next_next_cycle <- v) )
  ]

let colorconv_fields (obs : Colorconv_iface.observables) =
  [ ("dv", bool_lens (fun () -> obs.dv) (fun v -> obs.dv <- v));
    ("r", int_lens ~width:8 (fun () -> obs.r) (fun v -> obs.r <- v));
    ("g", int_lens ~width:8 (fun () -> obs.g) (fun v -> obs.g <- v));
    ("b", int_lens ~width:8 (fun () -> obs.b) (fun v -> obs.b <- v));
    ("ovalid", bool_lens (fun () -> obs.ovalid) (fun v -> obs.ovalid <- v));
    ("y", int_lens ~width:8 (fun () -> obs.y) (fun v -> obs.y <- v));
    ("cb", int_lens ~width:8 (fun () -> obs.cb) (fun v -> obs.cb <- v));
    ("cr", int_lens ~width:8 (fun () -> obs.cr) (fun v -> obs.cr <- v))
  ]
  @ List.mapi
      (fun i name ->
        (name, bool_lens (fun () -> obs.valids.(i)) (fun v -> obs.valids.(i) <- v)))
      Colorconv_iface.valid_names

let memctrl_fields (obs : Memctrl_iface.observables) =
  [ ("req", bool_lens (fun () -> obs.req) (fun v -> obs.req <- v));
    ("we", bool_lens (fun () -> obs.we) (fun v -> obs.we <- v));
    ("addr", int_lens ~width:8 (fun () -> obs.addr) (fun v -> obs.addr <- v));
    ("wdata", int_lens ~width:16 (fun () -> obs.wdata) (fun v -> obs.wdata <- v));
    ("ack", bool_lens (fun () -> obs.ack) (fun v -> obs.ack <- v));
    ( "ack_next_cycle",
      bool_lens (fun () -> obs.ack_next_cycle) (fun v -> obs.ack_next_cycle <- v) );
    ("rdata", int_lens ~width:16 (fun () -> obs.rdata) (fun v -> obs.rdata <- v))
  ]

(* --- DES56 ----------------------------------------------------------- *)

let des56_rtl ?fault () =
  rtl (fun kernel clock ~gap_cycles ~emit ops ->
      let model = Des56_rtl.create ?fault kernel clock in
      { sampling = Clock_edge clock;
        signals = Des56_rtl.signals model;
        binding =
          rtl_binding kernel
            [ ("ds", Fault.Bool_signal (Des56_rtl.ds model));
              ("decrypt", Fault.Bool_signal (Des56_rtl.decrypt model));
              ("key", Fault.Int64_signal { signal = Des56_rtl.key model; width = 64 });
              ( "indata",
                Fault.Int64_signal { signal = Des56_rtl.indata model; width = 64 } );
              ("out", Fault.Int64_signal { signal = Des56_rtl.out model; width = 64 });
              ("rdy", Fault.Bool_signal (Des56_rtl.rdy model));
              ("rdy_next_cycle", Fault.Bool_signal (Des56_rtl.rdy_next_cycle model));
              ( "rdy_next_next_cycle",
                Fault.Bool_signal (Des56_rtl.rdy_next_next_cycle model) ) ];
        completed = (fun () -> Des56_rtl.completed model);
        collect =
          Some
            (fun () ->
              if Signal.read (Des56_rtl.rdy model) then
                emit (Signal.read (Des56_rtl.out model)));
        drive =
          (fun () ->
            let negedge = Clock.negedge clock in
            Process.wait_event negedge;
            List.iter
              (fun op ->
                Signal.write (Des56_rtl.ds model) true;
                Signal.write (Des56_rtl.decrypt model) op.Des56_iface.decrypt;
                Signal.write (Des56_rtl.key model) op.Des56_iface.key;
                Signal.write (Des56_rtl.indata model) op.Des56_iface.indata;
                Process.wait_event negedge;
                Signal.write (Des56_rtl.ds model) false;
                for _ = 1 to Des56_iface.latency + gap_cycles do
                  Process.wait_event negedge
                done)
              ops;
            (* Drain the last result and one extra evaluation point. *)
            for _ = 1 to 3 do
              Process.wait_event negedge
            done;
            Kernel.stop kernel)
      })

(* The three DES56 TLM models share the observables record: what the
   checkers read, the tap records and the fault lenses corrupt. *)
let des56_tlm kernel initiator obs ~sampling ~completed drive =
  { sampling;
    signals = Des56_iface.signals obs;
    binding = tlm_binding kernel initiator (des56_fields obs);
    completed;
    collect = None;
    drive
  }

let des56_tlm_ca =
  tlm ~socket:"des56_ca_init" (fun kernel initiator ~gap_cycles ~emit ops ->
      let model = Des56_tlm_ca.create kernel in
      Tlm.Initiator.bind initiator (Des56_tlm_ca.target model);
      des56_tlm kernel initiator (Des56_tlm_ca.observables model)
        ~sampling:(Frames initiator)
        ~completed:(fun () -> Des56_tlm_ca.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let send_frame frame =
            let payload =
              Tlm.make_payload ~extension:(Des56_iface.Frame frame) Tlm.Write
            in
            Tlm.Initiator.b_transport initiator payload;
            if frame.Des56_iface.f_rdy then emit frame.Des56_iface.f_out;
            Process.wait_ns kernel period
          in
          (* Idle frames hold the previously driven input values,
             exactly as the RTL signals do between strobes. *)
          let held = ref (Des56_iface.make_frame ()) in
          let idle_frame () =
            let h = !held in
            Des56_iface.make_frame ~decrypt:h.Des56_iface.f_decrypt
              ~key:h.Des56_iface.f_key ~indata:h.Des56_iface.f_indata ()
          in
          List.iter
            (fun op ->
              let frame =
                Des56_iface.make_frame ~ds:true ~decrypt:op.Des56_iface.decrypt
                  ~key:op.Des56_iface.key ~indata:op.Des56_iface.indata ()
              in
              held := frame;
              send_frame frame;
              for _ = 1 to Des56_iface.latency + gap_cycles do
                send_frame (idle_frame ())
              done)
            ops;
          for _ = 1 to 3 do
            send_frame (idle_frame ())
          done;
          Kernel.stop kernel))

let des56_at_write op =
  Des56_iface.At_write
    { Des56_iface.a_decrypt = op.Des56_iface.decrypt;
      a_key = op.Des56_iface.key;
      a_indata = op.Des56_iface.indata
    }

let des56_tlm_at ?latency_ns () =
  tlm ~socket:"des56_at_init" (fun kernel initiator ~gap_cycles ~emit ops ->
      let model = Des56_tlm_at.create ?latency_ns kernel in
      Tlm.Initiator.bind initiator (Des56_tlm_at.target model);
      des56_tlm kernel initiator (Des56_tlm_at.observables model)
        ~sampling:
          (Transactions
             { initiator; grid_period = Some Des56_iface.clock_period })
        ~completed:(fun () -> Des56_tlm_at.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let transport extension =
            Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
          in
          List.iter
            (fun op ->
              transport (des56_at_write op);
              Process.wait_ns kernel period;
              transport Des56_iface.At_idle;
              (* Blocking read: the target returns at its completion
                 instant, which is the strobe time plus the model
                 latency. *)
              let response = { Des56_iface.a_out = 0L; a_rdy = false } in
              transport (Des56_iface.At_read response);
              if response.Des56_iface.a_rdy then emit response.Des56_iface.a_out;
              Process.wait_ns kernel period;
              transport (Des56_iface.At_status { Des56_iface.a_out = 0L; a_rdy = false });
              Process.wait_ns kernel (gap_cycles * period))
            ops;
          Kernel.stop kernel))

let des56_tlm_lt =
  tlm ~socket:"des56_lt_init" (fun kernel initiator ~gap_cycles ~emit ops ->
      let model = Des56_tlm_lt.create kernel in
      Tlm.Initiator.bind initiator (Des56_tlm_lt.target model);
      des56_tlm kernel initiator (Des56_tlm_lt.observables model)
        ~sampling:(Transactions { initiator; grid_period = None })
        ~completed:(fun () -> Des56_tlm_lt.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let transport extension =
            let payload = Tlm.make_payload ~extension Tlm.Write in
            Tlm.Initiator.b_transport initiator payload;
            payload
          in
          List.iter
            (fun op ->
              emit (transport (des56_at_write op)).Tlm.data;
              Process.wait_ns kernel period;
              ignore (transport Des56_iface.At_idle);
              Process.wait_ns kernel (gap_cycles * period))
            ops;
          Process.wait_ns kernel period;
          Kernel.stop kernel))

(* --- ColorConv ------------------------------------------------------- *)

let pack_ycbcr { Colorconv.y; cb; cr } =
  Int64.of_int (y lor (cb lsl 8) lor (cr lsl 16))

let colorconv_rtl =
  rtl (fun kernel clock ~gap_cycles ~emit bursts ->
      let model = Colorconv_rtl.create kernel clock in
      let valids =
        List.mapi
          (fun i name -> (name, Fault.Bool_signal (Colorconv_rtl.valids model).(i)))
          Colorconv_iface.valid_names
      in
      let byte signal = Fault.Int_signal { signal; width = 8 } in
      { sampling = Clock_edge clock;
        signals = Colorconv_rtl.signals model;
        binding =
          rtl_binding kernel
            ([ ("dv", Fault.Bool_signal (Colorconv_rtl.dv model));
               ("r", byte (Colorconv_rtl.r model));
               ("g", byte (Colorconv_rtl.g model));
               ("b", byte (Colorconv_rtl.b model));
               ("ovalid", Fault.Bool_signal (Colorconv_rtl.ovalid model));
               ("y", byte (Colorconv_rtl.y model));
               ("cb", byte (Colorconv_rtl.cb model));
               ("cr", byte (Colorconv_rtl.cr model)) ]
            @ valids);
        completed = (fun () -> Colorconv_rtl.completed model);
        collect =
          Some
            (fun () ->
              if Signal.read (Colorconv_rtl.ovalid model) then
                emit
                  (pack_ycbcr
                     { Colorconv.y = Signal.read (Colorconv_rtl.y model);
                       cb = Signal.read (Colorconv_rtl.cb model);
                       cr = Signal.read (Colorconv_rtl.cr model)
                     }));
        drive =
          (fun () ->
            let negedge = Clock.negedge clock in
            Process.wait_event negedge;
            List.iter
              (fun burst ->
                List.iter
                  (fun pixel ->
                    Signal.write (Colorconv_rtl.dv model) true;
                    Signal.write (Colorconv_rtl.r model) pixel.Colorconv.r;
                    Signal.write (Colorconv_rtl.g model) pixel.Colorconv.g;
                    Signal.write (Colorconv_rtl.b model) pixel.Colorconv.b;
                    Process.wait_event negedge)
                  burst;
                Signal.write (Colorconv_rtl.dv model) false;
                for _ = 1 to gap_cycles do
                  Process.wait_event negedge
                done)
              bursts;
            for _ = 1 to Colorconv_iface.latency + 2 do
              Process.wait_event negedge
            done;
            Kernel.stop kernel)
      })

let colorconv_tlm kernel initiator obs ~sampling ~completed drive =
  { sampling;
    signals = Colorconv_iface.signals obs;
    binding = tlm_binding kernel initiator (colorconv_fields obs);
    completed;
    collect = None;
    drive
  }

let colorconv_tlm_ca =
  tlm ~socket:"colorconv_ca_init" (fun kernel initiator ~gap_cycles ~emit bursts ->
      let model = Colorconv_tlm_ca.create kernel in
      Tlm.Initiator.bind initiator (Colorconv_tlm_ca.target model);
      colorconv_tlm kernel initiator (Colorconv_tlm_ca.observables model)
        ~sampling:(Frames initiator)
        ~completed:(fun () -> Colorconv_tlm_ca.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let send_frame frame =
            let payload =
              Tlm.make_payload ~extension:(Colorconv_iface.Frame frame) Tlm.Write
            in
            Tlm.Initiator.b_transport initiator payload;
            if frame.Colorconv_iface.c_ovalid then
              emit
                (pack_ycbcr
                   { Colorconv.y = frame.Colorconv_iface.c_y;
                     cb = frame.Colorconv_iface.c_cb;
                     cr = frame.Colorconv_iface.c_cr
                   });
            Process.wait_ns kernel period
          in
          let held = ref (Colorconv_iface.make_frame ()) in
          let idle_frame () =
            let h = !held in
            Colorconv_iface.make_frame ~r:h.Colorconv_iface.c_r
              ~g:h.Colorconv_iface.c_g ~b:h.Colorconv_iface.c_b ()
          in
          List.iter
            (fun burst ->
              List.iter
                (fun pixel ->
                  let frame =
                    Colorconv_iface.make_frame ~dv:true ~r:pixel.Colorconv.r
                      ~g:pixel.Colorconv.g ~b:pixel.Colorconv.b ()
                  in
                  held := frame;
                  send_frame frame)
                burst;
              for _ = 1 to gap_cycles do
                send_frame (idle_frame ())
              done)
            bursts;
          for _ = 1 to Colorconv_iface.latency + 2 do
            send_frame (idle_frame ())
          done;
          Kernel.stop kernel))

(* TLM-AT agenda: precomputed transaction schedule with deterministic
   ordering at shared instants (reads resolve timed obligations before
   same-instant writes fire new ones). *)
type cc_action =
  | Cc_read
  | Cc_status
  | Cc_write of Colorconv.pixel
  | Cc_idle

let cc_priority = function
  | Cc_idle -> 0
  | Cc_status -> 1
  | Cc_read -> 2
  | Cc_write _ -> 3

let cc_agenda ~gap_cycles bursts =
  let latency_ns = Colorconv_iface.latency * period in
  let agenda = ref [] in
  let add time action = agenda := (time, action) :: !agenda in
  let start = ref period in
  List.iter
    (fun burst ->
      let n = List.length burst in
      List.iteri
        (fun i pixel ->
          let wt = !start + (i * period) in
          add wt (Cc_write pixel);
          add (wt + latency_ns) Cc_read)
        burst;
      let last_write = !start + ((n - 1) * period) in
      add (last_write + period) Cc_idle;
      add (last_write + latency_ns + period) Cc_status;
      start := last_write + period + (gap_cycles * period))
    bursts;
  List.stable_sort
    (fun (t1, a1) (t2, a2) ->
      if t1 <> t2 then compare t1 t2 else compare (cc_priority a1) (cc_priority a2))
    !agenda

let colorconv_tlm_at =
  tlm ~socket:"colorconv_at_init" (fun kernel initiator ~gap_cycles ~emit bursts ->
      let model = Colorconv_tlm_at.create kernel in
      Tlm.Initiator.bind initiator (Colorconv_tlm_at.target model);
      colorconv_tlm kernel initiator (Colorconv_tlm_at.observables model)
        ~sampling:
          (Transactions
             { initiator; grid_period = Some Colorconv_iface.clock_period })
        ~completed:(fun () -> Colorconv_tlm_at.completed model)
        (fun () ->
          let transport extension =
            Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
          in
          let blank () =
            { Colorconv_iface.a_valid = false; a_y = 0; a_cb = 0; a_cr = 0 }
          in
          List.iter
            (fun (time, action) ->
              let now = Kernel.now kernel in
              if time > now then Process.wait_ns kernel (time - now);
              match action with
              | Cc_write pixel -> transport (Colorconv_iface.At_write pixel)
              | Cc_idle -> transport Colorconv_iface.At_idle
              | Cc_read ->
                let response = blank () in
                transport (Colorconv_iface.At_read response);
                if response.Colorconv_iface.a_valid then
                  emit
                    (pack_ycbcr
                       { Colorconv.y = response.Colorconv_iface.a_y;
                         cb = response.Colorconv_iface.a_cb;
                         cr = response.Colorconv_iface.a_cr
                       })
              | Cc_status -> transport (Colorconv_iface.At_status (blank ())))
            (cc_agenda ~gap_cycles bursts);
          (* Let the deferred same-instant checker step of the last
             transaction run before stopping. *)
          Process.wait_ns kernel period;
          Kernel.stop kernel))

(* --- MemCtrl --------------------------------------------------------- *)

let op_latency = function
  | Memctrl_iface.Write _ -> Memctrl_iface.write_latency
  | Memctrl_iface.Read _ -> Memctrl_iface.read_latency

let memctrl_rtl =
  rtl (fun kernel clock ~gap_cycles ~emit ops ->
      let model = Memctrl_rtl.create kernel clock in
      { sampling = Clock_edge clock;
        signals = Memctrl_rtl.signals model;
        binding =
          rtl_binding kernel
            [ ("req", Fault.Bool_signal (Memctrl_rtl.req model));
              ("we", Fault.Bool_signal (Memctrl_rtl.we model));
              ("addr", Fault.Int_signal { signal = Memctrl_rtl.addr model; width = 8 });
              ( "wdata",
                Fault.Int_signal { signal = Memctrl_rtl.wdata model; width = 16 } );
              ("ack", Fault.Bool_signal (Memctrl_rtl.ack model));
              ("ack_next_cycle", Fault.Bool_signal (Memctrl_rtl.ack_next_cycle model));
              ( "rdata",
                Fault.Int_signal { signal = Memctrl_rtl.rdata model; width = 16 } ) ];
        completed = (fun () -> Memctrl_rtl.completed model);
        collect = None;
        drive =
          (fun () ->
            let negedge = Clock.negedge clock in
            Process.wait_event negedge;
            List.iter
              (fun op ->
                (match op with
                 | Memctrl_iface.Write { addr; wdata } ->
                   Signal.write (Memctrl_rtl.req model) true;
                   Signal.write (Memctrl_rtl.we model) true;
                   Signal.write (Memctrl_rtl.addr model) addr;
                   Signal.write (Memctrl_rtl.wdata model) wdata
                 | Memctrl_iface.Read { addr } ->
                   Signal.write (Memctrl_rtl.req model) true;
                   Signal.write (Memctrl_rtl.we model) false;
                   Signal.write (Memctrl_rtl.addr model) addr);
                Process.wait_event negedge;
                Signal.write (Memctrl_rtl.req model) false;
                for _ = 1 to op_latency op + gap_cycles do
                  Process.wait_event negedge
                done;
                match op with
                | Memctrl_iface.Read _ ->
                  emit (Int64.of_int (Signal.read (Memctrl_rtl.rdata model)))
                | Memctrl_iface.Write _ -> ())
              ops;
            for _ = 1 to 3 do
              Process.wait_event negedge
            done;
            Kernel.stop kernel)
      })

let memctrl_tlm kernel initiator obs ~sampling ~completed drive =
  { sampling;
    signals = Memctrl_iface.signals obs;
    binding = tlm_binding kernel initiator (memctrl_fields obs);
    completed;
    collect = None;
    drive
  }

let memctrl_tlm_ca =
  tlm ~socket:"memctrl_ca_init" (fun kernel initiator ~gap_cycles ~emit ops ->
      let model = Memctrl_tlm_ca.create kernel in
      Tlm.Initiator.bind initiator (Memctrl_tlm_ca.target model);
      memctrl_tlm kernel initiator (Memctrl_tlm_ca.observables model)
        ~sampling:(Frames initiator)
        ~completed:(fun () -> Memctrl_tlm_ca.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let send_frame frame want_read =
            let payload =
              Tlm.make_payload ~extension:(Memctrl_iface.Frame frame) Tlm.Write
            in
            Tlm.Initiator.b_transport initiator payload;
            if want_read && frame.Memctrl_iface.m_ack then
              emit (Int64.of_int frame.Memctrl_iface.m_rdata);
            Process.wait_ns kernel period
          in
          (* Idle frames hold the last request's inputs, and a read
             keeps the write data, exactly as the RTL signals do
             between strobes. *)
          let held = ref (Memctrl_iface.make_frame ()) in
          let idle_frame () =
            let h = !held in
            Memctrl_iface.make_frame ~we:h.Memctrl_iface.m_we ~addr:h.Memctrl_iface.m_addr
              ~wdata:h.Memctrl_iface.m_wdata ()
          in
          List.iter
            (fun op ->
              let frame, is_read =
                match op with
                | Memctrl_iface.Write { addr; wdata } ->
                  (Memctrl_iface.make_frame ~req:true ~we:true ~addr ~wdata (), false)
                | Memctrl_iface.Read { addr } ->
                  ( Memctrl_iface.make_frame ~req:true ~addr
                      ~wdata:!held.Memctrl_iface.m_wdata (),
                    true )
              in
              held := frame;
              send_frame frame false;
              for _ = 1 to op_latency op + gap_cycles do
                send_frame (idle_frame ()) is_read
              done)
            ops;
          for _ = 1 to 3 do
            send_frame (idle_frame ()) false
          done;
          Kernel.stop kernel))

let memctrl_tlm_at ?write_latency_ns ?read_latency_ns () =
  tlm ~socket:"memctrl_at_init" (fun kernel initiator ~gap_cycles ~emit ops ->
      let model = Memctrl_tlm_at.create ?write_latency_ns ?read_latency_ns kernel in
      Tlm.Initiator.bind initiator (Memctrl_tlm_at.target model);
      memctrl_tlm kernel initiator (Memctrl_tlm_at.observables model)
        ~sampling:(Transactions { initiator; grid_period = None })
        ~completed:(fun () -> Memctrl_tlm_at.completed model)
        (fun () ->
          Process.wait_ns kernel period;
          let transport extension =
            Tlm.Initiator.b_transport initiator (Tlm.make_payload ~extension Tlm.Write)
          in
          List.iter
            (fun op ->
              (match op with
               | Memctrl_iface.Write { addr; wdata } ->
                 transport (Memctrl_iface.At_write { w_addr = addr; w_data = wdata })
               | Memctrl_iface.Read { addr } ->
                 transport (Memctrl_iface.At_read_req { r_addr = addr }));
              Process.wait_ns kernel period;
              transport Memctrl_iface.At_idle;
              let response = { Memctrl_iface.a_ack = false; a_rdata = 0 } in
              transport (Memctrl_iface.At_collect response);
              (match op with
               | Memctrl_iface.Read _ when response.Memctrl_iface.a_ack ->
                 emit (Int64.of_int response.Memctrl_iface.a_rdata)
               | Memctrl_iface.Read _ | Memctrl_iface.Write _ -> ());
              Process.wait_ns kernel period;
              transport
                (Memctrl_iface.At_status { Memctrl_iface.a_ack = false; a_rdata = 0 });
              Process.wait_ns kernel (gap_cycles * period))
            ops;
          Process.wait_ns kernel period;
          Kernel.stop kernel))

(* --- the one runner -------------------------------------------------- *)

type run = {
  properties : Property.t list;
  grid_properties : Property.t list;
  metrics : Tabv_obs.Metrics.t option;
  trace_writer : Tabv_trace.Writer.t option;
  fault_plan : Fault.plan option;
  guard : Kernel.guard option;
  gap_cycles : int;
}

let default =
  { properties = [];
    grid_properties = [];
    metrics = None;
    trace_writer = None;
    fault_plan = None;
    guard = None;
    gap_cycles = 2
  }

type run_result = {
  sim_time_ns : int;
  kernel_activations : int;
  delta_cycles : int;
  transactions : int;
  completed_ops : int;
  outputs : int64 list;
  checker_stats : Tabv_obs.Checker_snapshot.t list;
  metrics : (string * Tabv_obs.Metrics.value) list;
  diagnosis : Kernel.diagnosis;
  faults_triggered : int;
}

(* One shared atom sampler per checker pool, over the model's
   resolver; when the kernel's metrics registry is live its counters
   are published as pull probes (summed across pools). *)
let pool_sampler kernel resolve =
  let sampler = Sampler.create resolve in
  let metrics = Kernel.metrics kernel in
  if Tabv_obs.Metrics.enabled metrics then begin
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "checker.sampler.queries"
      (fun () -> Sampler.queries sampler);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "checker.sampler.evals"
      (fun () -> Sampler.evals sampler)
  end;
  sampler

(* The checker pools: every checker of a pool samples the same
   evaluation points, so the pool shares one sampler and each distinct
   atom is evaluated once per instant.  Strict transaction checkers
   sample in the deferred-delta phase of transaction instants and grid
   checkers on the clock grid, so each of those pools gets its own
   sampler. *)
let attach_pools kernel e r =
  let attach sampler mode properties =
    Checker.attach (Checker.Attach.spec sampler mode) kernel properties
  in
  let resolve = Duv_util.resolver_of e.signals in
  match e.sampling with
  | Transactions { initiator; grid_period = Some clock_period } ->
    let sampler = pool_sampler kernel resolve in
    let grid_sampler = pool_sampler kernel resolve in
    attach sampler (Checker.Attach.transaction initiator) r.properties
    @ attach grid_sampler (Checker.Attach.grid ~clock_period ()) r.grid_properties
  | _ when r.grid_properties <> [] ->
    invalid_arg "Testbench.run: grid properties on a model without a grid pool"
  | Clock_edge clock ->
    attach (pool_sampler kernel resolve) (Checker.Attach.clock_edge clock)
      r.properties
  | Frames initiator ->
    attach (pool_sampler kernel resolve)
      (Checker.Attach.transaction_unabstracted initiator) r.properties
  | Transactions { initiator; grid_period = None } ->
    attach (pool_sampler kernel resolve) (Checker.Attach.transaction initiator)
      r.properties

let span_label transaction =
  match transaction.Tlm.payload.Tlm.command with
  | Tlm.Read -> "read"
  | Tlm.Write -> "write"

(* The trace tap samples exactly where the checker pools do (posedge
   at RTL, transaction end at TLM), so a stored trace carries the
   evaluation points a live pool saw.  The writer binds the model's
   signal table once; each evaluation point then reads its readers
   straight into the writer's pending slot array.  A TLM sample is
   taken at the transaction end (last-wins within an instant) beside a
   begin/end span labelled by the command.  An armed metrics registry
   additionally publishes the writer's volume counters. *)
let tap kernel e writer =
  let metrics = Kernel.metrics kernel in
  if Tabv_obs.Metrics.enabled metrics then begin
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.samples" (fun () ->
        Tabv_trace.Writer.samples writer);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.spans" (fun () ->
        Tabv_trace.Writer.spans writer);
    Tabv_obs.Metrics.probe metrics ~combine:`Sum "trace.bytes" (fun () ->
        Tabv_trace.Writer.bytes_written writer)
  end;
  Tabv_trace.Writer.bind writer e.signals;
  match e.sampling with
  | Clock_edge clock ->
    Process.method_process kernel ~name:"trace_bin" ~initialize:false
      ~sensitivity:[ Clock.posedge clock ]
      (fun () -> Tabv_trace.Writer.record writer ~time:(Kernel.now kernel))
  | Frames initiator | Transactions { initiator; _ } ->
    Tlm.Initiator.on_transaction initiator (fun transaction ->
        Tabv_trace.Writer.record writer ~time:transaction.Tlm.end_time;
        Tabv_trace.Writer.span writer ~label:(span_label transaction)
          ~start_time:transaction.Tlm.start_time
          ~end_time:transaction.Tlm.end_time)

let run (r : run) model workload =
  let kernel = Kernel.create ?metrics:r.metrics () in
  let outputs = ref [] in
  let e =
    model.elaborate kernel ~gap_cycles:r.gap_cycles
      ~emit:(fun output -> outputs := output :: !outputs)
      workload
  in
  (* [None] or an empty plan installs nothing: the run is
     byte-identical to a build without the fault subsystem. *)
  let faults =
    match r.fault_plan with
    | Some plan when not (Fault.is_empty plan) -> Some (Fault.install e.binding plan)
    | Some _ | None -> None
  in
  let checkers = attach_pools kernel e r in
  Option.iter (tap kernel e) r.trace_writer;
  Option.iter
    (fun collect ->
      match e.sampling with
      | Clock_edge clock ->
        Process.method_process kernel ~name:"collect" ~initialize:false
          ~sensitivity:[ Clock.posedge clock ] collect
      | Frames _ | Transactions _ ->
        invalid_arg "Testbench.run: a collector samples clock edges")
    e.collect;
  Process.spawn kernel ~name:"driver" e.drive;
  let sim_time_ns = Kernel.run ?guard:r.guard kernel in
  let metrics = Kernel.metrics kernel in
  { sim_time_ns;
    kernel_activations = Kernel.activation_count kernel;
    delta_cycles = Kernel.delta_count kernel;
    transactions =
      (match e.sampling with
       | Clock_edge _ -> 0
       | Frames initiator | Transactions { initiator; _ } ->
         Tlm.Initiator.transaction_count initiator);
    completed_ops = e.completed ();
    outputs = List.rev !outputs;
    checker_stats = List.map Checker.snapshot checkers;
    metrics =
      (if Tabv_obs.Metrics.enabled metrics then Tabv_obs.Metrics.snapshot metrics
       else []);
    diagnosis = Kernel.last_diagnosis kernel;
    faults_triggered = Option.fold ~none:0 ~some:Fault.triggered faults
  }

let total_failures result =
  Tabv_obs.Checker_snapshot.total_failures result.checker_stats

let metrics_json ?(run = []) result =
  let open Tabv_core.Report_json in
  let run =
    run
    @ [ ("sim_time_ns", Int result.sim_time_ns);
        ("kernel_activations", Int result.kernel_activations);
        ("delta_cycles", Int result.delta_cycles);
        ("transactions", Int result.transactions);
        ("completed_ops", Int result.completed_ops);
        ("failures", Int (total_failures result));
        ("diagnosis", Fault.diagnosis_json result.diagnosis);
        ("faults_triggered", Int result.faults_triggered) ]
  in
  let cache = Progression.cache_stats () in
  let engine =
    engine_cache_json ~cache_hits:cache.Progression.cache_hits
      ~cache_misses:cache.Progression.cache_misses
      ~cache_bypassed:cache.Progression.cache_bypassed
      ~distinct_states:cache.Progression.distinct_states
      ~distinct_transitions:cache.Progression.distinct_transitions
      ~interned_formulas:cache.Progression.interned_formulas ()
  in
  metrics_json ~run ~metrics:result.metrics
    ~properties:(List.map checker_snapshot_json result.checker_stats)
    ~engine ()

(* --- benchmark entry points ----------------------------------------- *)

let run_des56_rtl ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer ops =
  run { default with properties; metrics; trace_writer } (des56_rtl ()) ops

let run_des56_tlm_ca ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer ops =
  run { default with properties; metrics; trace_writer } des56_tlm_ca ops

let run_des56_tlm_at ?(properties = []) ?(grid_properties = []) ?sim_engine:_
    ?metrics ?trace_writer ops =
  run { default with properties; grid_properties; metrics; trace_writer }
    (des56_tlm_at ()) ops

let run_colorconv_rtl ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer
    bursts =
  run { default with properties; metrics; trace_writer } colorconv_rtl bursts

let run_colorconv_tlm_ca ?(properties = []) ?sim_engine:_ ?metrics ?trace_writer
    bursts =
  run { default with properties; metrics; trace_writer } colorconv_tlm_ca bursts

let run_colorconv_tlm_at ?(properties = []) ?(grid_properties = []) ?sim_engine:_
    ?metrics ?trace_writer bursts =
  run { default with properties; grid_properties; metrics; trace_writer }
    colorconv_tlm_at bursts
