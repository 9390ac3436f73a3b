type _ Effect.t +=
  | Wait_ns : Kernel.t * int -> unit Effect.t
  | Wait_event : Event.t -> unit Effect.t

let method_process kernel ~name ?(initialize = true) ~sensitivity body =
  let body () =
    Kernel.set_label kernel name;
    body ()
  in
  List.iter (fun ev -> Event.on_event ev body) sensitivity;
  if initialize then Kernel.schedule_now kernel body

let spawn kernel ~name body =
  let open Effect.Deep in
  (* One resume closure per thread: a [wait_ns] or [wait_event] parks
     the continuation in [suspended] and schedules [resume], so a wait
     allocates only its effect, the continuation and the option.  The
     start and every resume go through [Kernel.set_label]: the kernel
     always knows which thread process is running, so a contained crash
     can be attributed by name in the [Process_crashed] diagnosis. *)
  let suspended = ref None in
  let blocked = ref false in
  let resume () =
    Kernel.set_label kernel name;
    if !blocked then begin
      blocked := false;
      Kernel.remove_waiter kernel
    end;
    match !suspended with
    | Some cont ->
      suspended := None;
      continue cont ()
    | None -> ()
  in
  let suspend = Some (fun cont -> suspended := Some cont) in
  let start () =
    Kernel.set_label kernel name;
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) continuation -> unit) option ->
            match eff with
            | Wait_ns (k, delay) ->
              Kernel.schedule_after k ~delay resume;
              suspend
            | Wait_event ev ->
              (* Blocked on an event: counted so a quiescent end with
                 pending waiters diagnoses as [Starved]. *)
              Kernel.add_waiter kernel;
              blocked := true;
              Event.once ev resume;
              suspend
            | _ -> None);
      }
  in
  Kernel.schedule_now kernel start

let wait_ns kernel delay =
  if delay < 0 then invalid_arg "Process.wait_ns: negative delay";
  Effect.perform (Wait_ns (kernel, delay))

let wait_event ev = Effect.perform (Wait_event ev)
