type t = {
  mutable step_ns : int;
  mutable pops : int;
  mutable pending_max : int;
  mutable host_step_ns : int;
  mutable switch_step_ns : int;
  mutable other_step_ns : int;
  mutable rx_ns : int;
  mutable rx_hits : int;
  mutable rx_outside : int;
  mutable send_ns : int;
  mutable callback_ns : int;
  mutable switch_taps : int;
  mutable in_step : bool;
  mutable step_host : bool;
  mutable step_switch : bool;
}

let create () =
  { step_ns = 0; pops = 0; pending_max = 0; host_step_ns = 0;
    switch_step_ns = 0; other_step_ns = 0; rx_ns = 0; rx_hits = 0;
    rx_outside = 0; send_ns = 0; callback_ns = 0; switch_taps = 0;
    in_step = false; step_host = false; step_switch = false }

let wrap_hosts t hosts =
  Array.iter
    (fun node ->
      match Netsim.Node.handler node with
      | None -> ()
      | Some h ->
        Netsim.Node.set_handler node (fun p ->
            t.rx_hits <- t.rx_hits + 1;
            if not t.in_step then t.rx_outside <- t.rx_outside + 1;
            t.step_host <- true;
            let t0 = Clock.now_ns () in
            h p;
            t.rx_ns <- t.rx_ns + (Clock.now_ns () - t0)))
    hosts

let tap_switches t switches =
  Array.iter
    (fun sw ->
      Netsim.Switch.add_tap sw (fun _ _ ->
          t.switch_taps <- t.switch_taps + 1;
          t.step_switch <- true))
    switches

let drive t sim ~until =
  let continue = ref true in
  while !continue do
    match Engine.Sim.next_time sim with
    | Some at when at <= until ->
      t.step_host <- false;
      t.step_switch <- false;
      t.in_step <- true;
      let t0 = Clock.now_ns () in
      ignore (Engine.Sim.step sim);
      let dt = Clock.now_ns () - t0 in
      t.in_step <- false;
      t.pops <- t.pops + 1;
      t.step_ns <- t.step_ns + dt;
      if t.step_host then t.host_step_ns <- t.host_step_ns + dt
      else if t.step_switch then t.switch_step_ns <- t.switch_step_ns + dt
      else t.other_step_ns <- t.other_step_ns + dt;
      let p = Engine.Sim.pending sim in
      if p > t.pending_max then t.pending_max <- p
    | _ -> continue := false
  done;
  (* Nothing is due by [until]; this only moves the clock there, as
     [Sim.run ~until] does. *)
  Engine.Sim.run ~until sim

let send t packed ~dst ~dst_port ~size =
  match t with
  | None -> Netsim.Transport_intf.send_message packed ~dst ~dst_port ~size ()
  | Some t ->
    let t0 = Clock.now_ns () in
    Netsim.Transport_intf.send_message packed ~dst ~dst_port ~size ();
    t.send_ns <- t.send_ns + (Clock.now_ns () - t0)

let span_callback t f x =
  match t with
  | None -> f x
  | Some t ->
    let t0 = Clock.now_ns () in
    f x;
    t.callback_ns <- t.callback_ns + (Clock.now_ns () - t0)

let failures t ~switch_received ~host_deliveries =
  let fail cond fmt =
    Printf.ksprintf (fun s -> if cond then [ s ] else []) fmt
  in
  List.concat
    [ fail
        (t.host_step_ns + t.switch_step_ns + t.other_step_ns <> t.step_ns)
        "trace: class step times %d+%d+%d ns <> step total %d ns"
        t.host_step_ns t.switch_step_ns t.other_step_ns t.step_ns;
      fail (t.rx_outside > 0) "trace: %d host spans outside any step"
        t.rx_outside;
      fail (t.rx_ns > t.host_step_ns)
        "trace: host spans %d ns exceed host-class steps %d ns" t.rx_ns
        t.host_step_ns;
      fail
        (t.switch_taps <> switch_received)
        "trace: switch taps %d <> Switch.received %d" t.switch_taps
        switch_received;
      fail
        (t.rx_hits <> host_deliveries)
        "trace: wrapped-handler hits %d <> edge->host deliveries %d"
        t.rx_hits host_deliveries ]
