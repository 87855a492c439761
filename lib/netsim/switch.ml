type action = Forward of int | Drop | Consume

type verdict = Continue | Absorb

type t = {
  sim : Engine.Sim.t;
  switch_name : string;
  mutable ports : Link.t array;
  mutable forward : (Packet.t -> action) option;
  mutable hooks : (Packet.t -> verdict) list; (* forward order *)
  mutable taps : (Engine.Time.t -> Packet.t -> unit) list; (* forward order *)
  pool : Packet.pool option;
  mutable n_forwarded : int;
  mutable n_dropped : int;
  mutable n_consumed : int;
  (* Conservation-ledger counters: packets entering from links and
     packets the device itself originated.  Every ingress ends up
     forwarded, dropped, or consumed, so
     received + injected = forwarded + dropped + consumed. *)
  mutable n_received : int;
  mutable n_injected : int;
}

let create sim ~name ?pool () =
  let t =
    { sim; switch_name = name; ports = [||]; forward = None; hooks = [];
      taps = []; pool; n_forwarded = 0; n_dropped = 0; n_consumed = 0;
      n_received = 0; n_injected = 0 }
  in
  if Telemetry.Ctx.on () then begin
    let reg = Telemetry.Ctx.metrics () in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let pre = "switch." ^ name ^ "." in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let g n f = Telemetry.Registry.set_gauge reg (pre ^ n) f in
    g "forwarded" (fun () -> float_of_int t.n_forwarded);
    g "dropped" (fun () -> float_of_int t.n_dropped);
    g "consumed" (fun () -> float_of_int t.n_consumed)
  end;
  t

let name t = t.switch_name
let sim t = t.sim
let pool t = t.pool

let add_port t link =
  t.ports <- Array.append t.ports [| link |];
  Array.length t.ports - 1

let port t i = t.ports.(i)
let port_count t = Array.length t.ports

let set_forward t f = t.forward <- Some f

(* Hooks and taps run in registration order; appending at setup time
   avoids the per-packet [List.rev] the old representation needed. *)
(* simlint: allow H101 — topology wiring, runs once per hook at setup *)
let add_ingress_hook t hook = t.hooks <- t.hooks @ [ hook ]

(* simlint: allow H101 — topology wiring, runs once per tap at setup *)
let add_tap t f = t.taps <- t.taps @ [ f ]

let inject t ~port p =
  t.n_injected <- t.n_injected + 1;
  t.n_forwarded <- t.n_forwarded + 1;
  Link.send t.ports.(port) p

(* Top-level, so walking the hook list builds no closure per packet. *)
let rec run_hooks p = function
  | [] -> Continue
  | hook :: rest -> (
    match hook p with Absorb -> Absorb | Continue -> run_hooks p rest)

(* The no-tap guard is load-bearing: [List.iter]'s closure captures [t]
   and [p], so building it unconditionally would allocate on every
   packet even when no tap is installed. *)
let receive t p =
  t.n_received <- t.n_received + 1;
  if t.taps != [] then List.iter (fun f -> f (Engine.Sim.now t.sim) p) t.taps;
  match run_hooks p t.hooks with
  | Absorb -> t.n_consumed <- t.n_consumed + 1
  | Continue -> (
    match t.forward with
    | None -> failwith ("Switch " ^ t.switch_name ^ ": no forwarding function")
    | Some f -> (
      match f p with
      | Forward i ->
        t.n_forwarded <- t.n_forwarded + 1;
        Link.send t.ports.(i) p
      | Drop ->
        t.n_dropped <- t.n_dropped + 1;
        if Telemetry.Ctx.on () then
          Telemetry.Events.emit
            (Telemetry.Ctx.events ())
            ~at:(Engine.Sim.now t.sim) ~kind:Telemetry.Events.Drop
            ~point:t.switch_name ~uid:p.Packet.uid ~src:p.Packet.src
            ~dst:p.Packet.dst ~size:p.Packet.size ~a:0 ~b:0;
        (match t.pool with Some pool -> Packet.release pool p | None -> ())
      | Consume -> t.n_consumed <- t.n_consumed + 1))

let forwarded t = t.n_forwarded
let dropped t = t.n_dropped
let consumed t = t.n_consumed
let received t = t.n_received
let injected t = t.n_injected
