type _ Effect.t +=
  | Wait_ns : Kernel.t * int -> unit Effect.t
  | Wait_event : Event.t -> unit Effect.t
  | Wait_any : Event.t list -> unit Effect.t

let method_process kernel ~name ?(initialize = true) ~sensitivity body =
  let body () =
    Kernel.set_label kernel name;
    body ()
  in
  List.iter (fun ev -> Event.on_event ev body) sensitivity;
  if initialize then Kernel.schedule_now kernel body

let spawn kernel ~name body =
  let open Effect.Deep in
  (* Every resume goes through [Kernel.set_label]: the kernel always
     knows which thread process is running, so a contained crash can be
     attributed by name in the [Process_crashed] diagnosis. *)
  let label f () =
    Kernel.set_label kernel name;
    f ()
  in
  (* One resume closure per thread: a [wait_ns] or [wait_event] parks
     the continuation in [suspended] and schedules [resume], so a wait
     allocates only its effect, the continuation and the option. *)
  let suspended = ref None in
  let blocked_on = ref None in
  let resume () =
    Kernel.set_label kernel name;
    (match !blocked_on with
     | Some k ->
       blocked_on := None;
       Kernel.remove_waiter k
     | None -> ());
    match !suspended with
    | Some cont ->
      suspended := None;
      continue cont ()
    | None -> ()
  in
  let suspend = Some (fun cont -> suspended := Some cont) in
  let start () =
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
              let k = Event.kernel ev in
              Kernel.add_waiter k;
              blocked_on := Some k;
              Event.once ev resume;
              suspend
            | Wait_any events ->
              Some
                (fun (cont : (a, _) continuation) ->
                  (* The continuation may resume only once; later
                     notifications of the other events are ignored.
                     One waiter is counted for the whole group and
                     released on the first resume. *)
                  let k = Event.kernel (List.hd events) in
                  Kernel.add_waiter k;
                  let resumed = ref false in
                  List.iter
                    (fun ev ->
                      Event.once ev
                        (label (fun () ->
                           if not !resumed then begin
                             resumed := true;
                             Kernel.remove_waiter k;
                             continue cont ()
                           end)))
                    events)
            | _ -> None);
      }
  in
  Kernel.schedule_now kernel (label start)

let wait_ns kernel delay =
  if delay < 0 then invalid_arg "Process.wait_ns: negative delay";
  Effect.perform (Wait_ns (kernel, delay))

let wait_event ev = Effect.perform (Wait_event ev)

let wait_any events =
  if events = [] then invalid_arg "Process.wait_any: empty event list";
  Effect.perform (Wait_any events)

let rec wait_until ~on predicate =
  if predicate () then ()
  else begin
    wait_event on;
    wait_until ~on predicate
  end
