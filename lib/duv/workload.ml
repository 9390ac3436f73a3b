let random_int64 state =
  let high = Random.State.int64 state Int64.max_int in
  let low = Random.State.bool state in
  if low then Int64.logor high Int64.min_int else high

let des56 ~seed ~count ?(zero_fraction = 0.2) ?(decrypt_fraction = 0.3) () =
  let state = Random.State.make [| seed; 0xDE5 |] in
  List.init count (fun _ ->
    let indata =
      if Random.State.float state 1.0 < zero_fraction then 0L else random_int64 state
    in
    {
      Des56_iface.decrypt = Random.State.float state 1.0 < decrypt_fraction;
      key = random_int64 state;
      indata;
    })

let colorconv ~seed ~count ?(burst = 8) ?(black_fraction = 0.1) () =
  if burst <= 0 then invalid_arg "Workload.colorconv: burst must be positive";
  let state = Random.State.make [| seed; 0xC01 |] in
  let pixel () =
    if Random.State.float state 1.0 < black_fraction then { Colorconv.r = 0; g = 0; b = 0 }
    else
      {
        Colorconv.r = Random.State.int state 256;
        g = Random.State.int state 256;
        b = Random.State.int state 256;
      }
  in
  let rec bursts remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let size = min remaining (1 + Random.State.int state burst) in
      let pixels = List.init size (fun _ -> pixel ()) in
      bursts (remaining - size) (pixels :: acc)
    end
  in
  bursts count []

let memctrl ~seed ~count ?(write_fraction = 0.5) () =
  let state = Random.State.make [| seed; 0x3E3 |] in
  (* Written addresses, oldest first: the [k]-th newest is
     [written.(n_written - 1 - k)]. *)
  let written = Array.make (max 0 count) 0 and n_written = ref 0 in
  List.init count (fun _ ->
    if Random.State.float state 1.0 < write_fraction || !n_written = 0 then begin
      let addr = Random.State.int state Memctrl_iface.address_space in
      written.(!n_written) <- addr;
      incr n_written;
      Memctrl_iface.Write { addr; wdata = Random.State.int state 0x10000 }
    end
    else begin
      let addr =
        if Random.State.bool state then
          written.(!n_written - 1 - Random.State.int state !n_written)
        else Random.State.int state Memctrl_iface.address_space
      in
      Memctrl_iface.Read { addr }
    end)
