(* A point-to-point link: qdisc + serialisation + propagation delay.

   Two kinds of engine event drive a link:

   - a delivery per packet, scheduled the moment the packet starts
     serialising, for [busy_until + delay] — the completion instant is
     known then, so there is no separate transmit-completion event for
     a packet that leaves an empty queue behind;
   - a transmit-completion timer, armed only while a packet waits in
     the qdisc, that fires at [busy_until] and starts the next head.
     The qdisc is therefore dequeued at each packet's exact departure
     instant, so trimming, priority, WRR and dequeue hooks see the same
     contents they would under one completion event per packet.

   A lone packet on an idle wire costs one event; n back-to-back
   packets cost 2n-1.

   Tie rule: a completion due at the current instant takes effect
   before an enqueue at that instant.  [send] starts the waiting head
   first when [busy_until <= now], then enqueues, so marking and
   drop-tail decisions never count a packet that has already left.

   In-flight packets — the one on the wire at the tail, then every one
   propagating — sit in a ring; deliveries are FIFO because completion
   times are monotonic and the propagation delay is constant.
   Forwarding a packet allocates nothing in the link.

   Links can fail ([set_down]/[set_up]): a down link refuses new
   packets, flushes its queue, loses the packet being serialised and
   any still propagating, and pauses the transmitter until revived.
   All fault-induced losses are counted in [fault_drops] so a
   conservation audit can account for every packet. *)

type t = {
  sim : Engine.Sim.t;
  link_name : string;
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  mutable q : Qdisc.t;
  mutable dst : (Packet.t -> unit) option;
  mutable taps : (Engine.Time.t -> Packet.t -> unit) list; (* forward order *)
  mutable up : bool;
  (* Bytes of every packet started on the wire, the one still
     serialising included; [bytes_sent] subtracts [wire_size] while
     [busy_until] is in the future. *)
  mutable sent_bytes : int;
  mutable n_fault_drops : int;
  (* Conservation-ledger counters: every packet offered to [send] and
     every packet handed to the destination.  With the qdisc's own drop
     count these close the per-link invariant
     sends = delivered + drops + fault_drops + queued + in-flight. *)
  mutable n_sends : int;
  mutable n_delivered : int;
  flight : Pktring.t;
  pool : Packet.pool option;
  (* Completion instant and size of the last packet started; the wire
     is busy while [busy_until > now]. *)
  mutable busy_until : Engine.Time.t;
  mutable wire_size : int;
  (* Delivery event of the last packet started, cancelled by
     [set_down] when that packet is still serialising. *)
  mutable wire_delivery : Engine.Sim.handle;
  mutable on_deliver : unit -> unit;
  (* Armed at [busy_until] exactly while the qdisc is non-empty. *)
  mutable completion : Engine.Sim.timer;
}

(* The no-tap guard is load-bearing: [List.iter]'s closure captures
   [t] and [p], so building it unconditionally would allocate on every
   delivered packet. *)
let deliver t p =
  t.n_delivered <- t.n_delivered + 1;
  if t.taps != [] then List.iter (fun f -> f (Engine.Sim.now t.sim) p) t.taps;
  match t.dst with
  | Some handler -> handler p
  | None -> failwith ("Link " ^ t.link_name ^ ": destination not wired")

(* Structured telemetry: one guarded branch when disabled, and when
   enabled the ring write itself allocates nothing ([point] is the
   link's retained name).  [a]/[b] carry the instantaneous queue
   state. *)
let ev_emit t ~kind (p : Packet.t) =
  (* simlint: allow T201 — emit helper, every caller guards with Ctx.on *) (* simlint: allow P102 — same audit: the Ctx.on guard sits at each call site *)
  Telemetry.Events.emit
    (Telemetry.Ctx.events ())
    ~at:(Engine.Sim.now t.sim) ~kind ~point:t.link_name ~uid:p.Packet.uid
    ~src:p.Packet.src ~dst:p.Packet.dst ~size:p.Packet.size
    ~a:(t.q.Qdisc.pkt_length ()) ~b:(t.q.Qdisc.byte_length ())

let drop_faulted t p =
  t.n_fault_drops <- t.n_fault_drops + 1;
  if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Drop p;
  match t.pool with Some pool -> Packet.release pool p | None -> ()

(* Start serialising the queue head, if any: its delivery is scheduled
   at once, and the completion timer is left armed at the new
   [busy_until] only if another packet is waiting behind it. *)
let start_head t =
  match t.q.Qdisc.dequeue () with
  | None -> ()
  | Some p ->
    if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Dequeue p;
    let size = p.Packet.size in
    t.busy_until <-
      Engine.Sim.now t.sim + Engine.Time.tx_time ~bytes:size ~rate:t.link_rate;
    t.wire_size <- size;
    t.sent_bytes <- t.sent_bytes + size;
    Pktring.push t.flight p;
    t.wire_delivery <-
      Engine.Sim.schedule t.sim ~at:(t.busy_until + t.link_delay) t.on_deliver;
    if t.q.Qdisc.pkt_length () > 0 then
      Engine.Sim.arm t.completion ~at:t.busy_until
    else Engine.Sim.disarm t.completion

let create sim ~name ~rate ~delay ?qdisc ?pool () =
  let q = match qdisc with Some q -> q | None -> Qdisc.fifo ~cap_pkts:1000 () in
  let t =
    { sim; link_name = name; link_rate = rate; link_delay = delay; q;
      dst = None; taps = []; up = true; sent_bytes = 0; n_fault_drops = 0;
      n_sends = 0; n_delivered = 0; flight = Pktring.create (); pool;
      busy_until = Engine.Time.zero; wire_size = 0; wire_delivery = Engine.Sim.no_handle;
      on_deliver = ignore; completion = Engine.Sim.timer sim ignore }
  in
  t.on_deliver <-
    (fun () ->
      (* Packets still propagating when the link went down are lost
         with it (the delivery event fires regardless, to keep the
         flight ring in order). *)
      let p = Pktring.pop t.flight in
      if t.up then deliver t p else drop_faulted t p);
  t.completion <- Engine.Sim.timer sim (fun () -> start_head t);
  (* Queue-depth, drop, mark and trim metrics; gauges read the live
     qdisc (through [t], so [set_qdisc] swaps are followed) and cost
     nothing until a snapshot samples them. *)
  if Telemetry.Ctx.on () then begin
    let reg = Telemetry.Ctx.metrics () in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let pre = "link." ^ name ^ "." in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let g n f = Telemetry.Registry.set_gauge reg (pre ^ n) f in
    g "queue_pkts" (fun () -> float_of_int (t.q.Qdisc.pkt_length ()));
    g "queue_bytes" (fun () -> float_of_int (t.q.Qdisc.byte_length ()));
    g "max_queue_bytes" (fun () -> float_of_int (t.q.Qdisc.max_bytes_seen ()));
    g "drops" (fun () -> float_of_int (t.q.Qdisc.drops ()));
    g "marks" (fun () -> float_of_int (t.q.Qdisc.marks ()));
    g "trims" (fun () -> float_of_int (t.q.Qdisc.trims ()));
    g "sent_bytes" (fun () -> float_of_int t.sent_bytes);
    g "fault_drops" (fun () -> float_of_int t.n_fault_drops)
  end;
  t

let set_dst t handler = t.dst <- Some handler

(* simlint: allow H101 — topology wiring, runs once per tap at setup *)
let add_tap t f = t.taps <- t.taps @ [ f ]

(* After an accepted enqueue: start the packet at once on an idle wire,
   otherwise make sure the completion timer will fetch it. *)
let kick t =
  if t.busy_until <= Engine.Sim.now t.sim then start_head t
  else if not (Engine.Sim.armed t.completion) then
    Engine.Sim.arm t.completion ~at:t.busy_until

let send t p =
  t.n_sends <- t.n_sends + 1;
  (* Tie rule: a completion due now leaves before this packet arrives,
     so the enqueue below never sees the departed head. *)
  if
    t.busy_until <= Engine.Sim.now t.sim
    && Engine.Sim.armed t.completion
  then start_head t;
  if not t.up then drop_faulted t p
  else if not (Telemetry.Ctx.on ()) then begin
    (* Uninstrumented fast path: byte-for-byte the pre-telemetry code. *)
    if t.q.Qdisc.enqueue p then kick t
    else
      (* Tail drop: with a pool the dropped packet goes straight back. *)
      match t.pool with Some pool -> Packet.release pool p | None -> ()
  end
  else begin
    (* The qdisc may mark or trim the packet during enqueue; comparing
       the flags around the call attributes those events to this hop
       without touching every qdisc implementation. *)
    let was_ce = Packet.ecn_ce p in
    let was_trimmed = Packet.trimmed p in
    if t.q.Qdisc.enqueue p then begin
      ev_emit t ~kind:Telemetry.Events.Enqueue p;
      if Packet.ecn_ce p && not was_ce then
        ev_emit t ~kind:Telemetry.Events.Mark p;
      if Packet.trimmed p && not was_trimmed then
        ev_emit t ~kind:Telemetry.Events.Trim p;
      kick t
    end
    else begin
      ev_emit t ~kind:Telemetry.Events.Drop p;
      match t.pool with Some pool -> Packet.release pool p | None -> ()
    end
  end

let qdisc t = t.q

let set_qdisc t q = t.q <- q

let is_up t = t.up

let set_down t =
  if t.up then begin
    t.up <- false;
    Engine.Sim.disarm t.completion;
    (* Abort the serialisation in progress: the packet on the wire is
       the newest in flight.  Fully serialised packets stay in flight
       and are lost (or delivered, if the link is revived in time) at
       their arrival instant. *)
    let now = Engine.Sim.now t.sim in
    if t.busy_until > now then begin
      Engine.Sim.cancel t.sim t.wire_delivery;
      t.sent_bytes <- t.sent_bytes - t.wire_size;
      t.busy_until <- now;
      drop_faulted t (Pktring.pop_back t.flight)
    end;
    (* Flush the queue: a dead link holds no packets. *)
    let rec flush () =
      match t.q.Qdisc.dequeue () with
      | Some p ->
        drop_faulted t p;
        flush ()
      | None -> ()
    in
    flush ()
  end

(* [set_down] left the queue empty and sends while down were dropped,
   so there is nothing to restart. *)
let set_up t = t.up <- true

let rate t = t.link_rate
let delay t = t.link_delay
let name t = t.link_name

let busy t = t.busy_until > Engine.Sim.now t.sim

let bytes_sent t = if busy t then t.sent_bytes - t.wire_size else t.sent_bytes

let fault_drops t = t.n_fault_drops
let sends t = t.n_sends
let delivered_pkts t = t.n_delivered

let queued_pkts t = t.q.Qdisc.pkt_length ()

let in_flight_pkts t = Pktring.length t.flight

let utilization t ~since =
  let elapsed = Engine.Sim.now t.sim - since in
  (* Guard: [since = now] (or a future [since]) yields no elapsed time
     to average over — report zero rather than dividing by it. *)
  if elapsed <= 0 then 0.0
  else
    float_of_int (bytes_sent t * 8)
    /. (float_of_int t.link_rate *. Engine.Time.to_float_s elapsed)
