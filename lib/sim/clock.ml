type t = {
  kernel : Kernel.t;
  signal : bool Signal.t;
  period : int;
  posedge : Event.t;
  negedge : Event.t;
  mutable cycles : int;
}

let create kernel ~name ~period ?(start = 0) () =
  if period <= 0 || period mod 2 <> 0 then
    invalid_arg "Clock.create: period must be positive and even";
  let t =
    {
      kernel;
      signal = Signal.create_bool kernel ~name false;
      period;
      posedge = Event.create kernel (name ^ ".posedge");
      negedge = Event.create kernel (name ^ ".negedge");
      cycles = 0;
    }
  in
  let half = period / 2 in
  let rec rise () =
    t.cycles <- t.cycles + 1;
    Signal.write t.signal true;
    Event.notify t.posedge;
    Kernel.schedule_after kernel ~delay:half fall
  and fall () =
    Signal.write t.signal false;
    Event.notify t.negedge;
    Kernel.schedule_after kernel ~delay:half rise
  in
  Kernel.schedule_at kernel ~time:start rise;
  t

let signal t = t.signal
let period t = t.period
let posedge t = t.posedge
let negedge t = t.negedge
let cycle_count t = t.cycles
