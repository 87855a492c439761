module T = Netsim.Transport_intf
module Topo = Netsim.Topology

type scheme = Raw | Tcp | Dctcp | Mtp

let scheme_name = function
  | Raw -> "raw"
  | Tcp -> "tcp"
  | Dctcp -> "dctcp"
  | Mtp -> "mtp"

let schemes = function
  | Inputs.Fabric _ -> [ Raw ]
  | Inputs.Rpc _ -> [ Tcp; Dctcp; Mtp ]

type outcome = {
  scheme : scheme;
  topology_ns : int;
  attach_ns : int;
  wall_ns : int;
  events : int;
  hops : int;
  sends : int;
  drops : int;
  marks : int;
  trims : int;
  switch_rx : int;
  pool_fresh : int;
  pool_reused : int;
  host_rx : int;
  messages : int;
  retransmits : int;
  rx_bytes : int;
  uplink_bytes : int;
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  summary_ns : int;
  outcome_line : string;
  digest : string;
  failures : string list;
}

let rate = Engine.Time.gbps Inputs.host_gbps
let delay = Engine.Time.us 2
let mark_threshold = 20

(* What a workload hands back after attaching: [start] runs inside the
   timed simulation phase (the first sends), [cap] is the simulated-time
   horizon, [finish] reads the outcome once the engine has stopped. *)
type app = {
  start : unit -> unit;
  cap : Engine.Time.t;
  finish : unit -> app_result;
}

and app_result = {
  a_messages : int;
  a_retransmits : int;
  a_rx_bytes : int;
  a_pools : Netsim.Packet.pool list;
  a_summary_ns : int;
  a_line : string;  (** Workload part of the outcome line. *)
  a_checks : string list;
}

let downlink ft i =
  let half = ft.Topo.ft_k / 2 in
  Netsim.Switch.port ft.Topo.ft_edges.(i / half) (i mod half)

let attach_transport scheme host =
  match scheme with
  | Tcp ->
    T.pack (module Transport.Tcp.Messaging)
      (Transport.Tcp.attach ~snd_buf:1_000_000 host)
  | Dctcp ->
    T.pack (module Transport.Dctcp.Messaging)
      (Transport.Dctcp.attach ~snd_buf:1_000_000 host)
  | Mtp -> T.pack (module Mtp.Endpoint.Messaging) (Mtp.Endpoint.attach host)
  | Raw -> invalid_arg "attach_transport: raw has no transport"

let percentiles fcts =
  let t0 = Clock.now_ns () in
  let p50, p99 =
    if Stats.Summary.count fcts = 0 then (nan, nan)
    else (Stats.Summary.percentile fcts 50.0, Stats.Summary.percentile fcts 99.0)
  in
  (p50, p99, Clock.now_ns () - t0)

let check cond fmt = Printf.ksprintf (fun s -> if cond then [] else [ s ]) fmt

(* Transport totals over every host. *)
let transport_totals packed =
  Array.fold_left
    (fun (m, r, b) p ->
      let s = T.stats p in
      (m + s.T.rx_messages, r + s.T.retransmits, b + s.T.rx_bytes))
    (0, 0, 0) packed

let fabric_app (inp : Inputs.fabric) sim ft =
  let hosts = ft.Topo.ft_hosts in
  let n = Array.length hosts in
  let pool = Netsim.Packet.pool sim in
  let delivered = ref 0 in
  Array.iter
    (fun h ->
      Netsim.Node.set_handler h (fun p ->
          incr delivered;
          Netsim.Packet.release pool p))
    hosts;
  (* Half line rate: each packet is followed by an idle gap as long as
     its own serialization. *)
  let gaps =
    Array.map (fun b -> 2 * Engine.Time.tx_time ~bytes:b ~rate) Inputs.packet_sizes
  in
  let fires =
    Array.init n (fun i ->
        let link = Netsim.Node.uplink hosts.(i) in
        let src = Netsim.Node.addr hosts.(i) in
        let perm_dst = Netsim.Node.addr hosts.(inp.f_perm.(i)) in
        let hot_dst =
          if inp.f_hot.(i) < 0 then perm_dst
          else Netsim.Node.addr hosts.(inp.f_hot.(i))
        in
        let pkts = inp.f_pkts.(i) in
        let j = ref 0 in
        let hash = ref inp.f_hash.(i) in
        let rec fire () =
          let c = Char.code (Bytes.unsafe_get pkts !j) in
          let cls = c land 3 in
          hash := (!hash + 0x9E3779B1) land 0xFFFFFF;
          Netsim.Link.send link
            (Netsim.Packet.recycle pool ~flow_hash:!hash ~src
               ~dst:(if c land 4 <> 0 then hot_dst else perm_dst)
               ~size:Inputs.packet_sizes.(cls) ());
          incr j;
          if !j < Bytes.length pkts then
            ignore (Engine.Sim.after sim gaps.(cls) fire)
        in
        fire)
  in
  { start =
      (fun () ->
        Array.iteri
          (fun i f ->
            if Bytes.length inp.f_pkts.(i) > 0 then
              ignore (Engine.Sim.schedule sim ~at:inp.f_start.(i) f))
          fires);
    cap = Engine.Time.ms 100;
    finish =
      (fun () ->
        { a_messages = !delivered;
          a_retransmits = 0;
          a_rx_bytes = 0;
          a_pools = [ pool ];
          a_summary_ns = 0;
          a_line = Printf.sprintf "delivered=%d" !delivered;
          a_checks =
            check (!delivered > 0) "fabric_perm: nothing delivered" }) }

let resp_port = 80

let rpc_app (inp : Inputs.rpc) trace scheme sim ft =
  let hosts = ft.Topo.ft_hosts in
  if scheme = Mtp then
    Array.iteri
      (fun i _ ->
        Mtp.Mtp_switch.stamp sim (downlink ft i) ~path_id:(i + 1)
          ~mode:(Mtp.Mtp_switch.Ecn_mark mark_threshold))
      hosts;
  let nethosts = Array.map (fun h -> Netsim.Host.create h) hosts in
  let packed = Array.map (attach_transport scheme) nethosts in
  let fcts = Stats.Summary.create () in
  let got = ref 0 in
  let on_message =
    Trace.span_callback trace (fun d ->
        incr got;
        Stats.Summary.add fcts (Engine.Time.to_float_us d.T.msg_latency))
  in
  Array.iter (fun p -> T.listen p ~port:resp_port ~on_message ()) packed;
  let n = Array.length inp.r_at in
  let next = ref 0 in
  (* One pending arrival at a time, like an open-loop generator: the
     arrival event sends message [k] and schedules message [k+1]. *)
  let rec arrive () =
    let k = !next in
    Trace.send trace packed.(inp.r_src.(k))
      ~dst:(Netsim.Node.addr hosts.(inp.r_dst.(k)))
      ~dst_port:resp_port ~size:inp.r_size.(k);
    incr next;
    if !next < n then ignore (Engine.Sim.schedule sim ~at:inp.r_at.(!next) arrive)
  in
  { start = (fun () -> ignore (Engine.Sim.schedule sim ~at:inp.r_at.(0) arrive));
    cap = inp.r_at.(n - 1) + Engine.Time.sec 1;
    finish =
      (fun () ->
        let msgs, rtx, bytes = transport_totals packed in
        let p50, p99, summary_ns = percentiles fcts in
        { a_messages = msgs;
          a_retransmits = rtx;
          a_rx_bytes = bytes;
          a_pools = Array.to_list (Array.map Netsim.Host.pool nethosts);
          a_summary_ns = summary_ns;
          a_line =
            Printf.sprintf "msgs=%d p50_us=%.3f p99_us=%.3f rtx=%d" msgs p50 p99 rtx;
          a_checks =
            check (!got = n) "rpc_websearch: %d of %d messages completed" !got n })
  }

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* The timed set-up phase: a fabric with the scheme and the workload's
   traffic attached, on a fully collected heap.  Returns the topology
   and attach times in ns. *)
let build ?trace ~seed inputs scheme =
  let k, ecn =
    match inputs with
    | Inputs.Fabric f -> (f.Inputs.f_k, true)
    | Inputs.Rpc r -> (r.Inputs.r_k, scheme <> Tcp)
  in
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let sim = Engine.Sim.create ~seed () in
  let qdisc () =
    if ecn then Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold ()
    else Netsim.Qdisc.fifo ~cap_pkts:128 ()
  in
  let ft =
    Topo.fat_tree (Topo.create sim) ~k ~host_rate:rate ~fabric_rate:rate ~delay
      ~uplink_qdisc:qdisc ~host_qdisc:qdisc ()
  in
  let t1 = Clock.now_ns () in
  let app =
    match inputs with
    | Inputs.Fabric f -> fabric_app f sim ft
    | Inputs.Rpc r -> rpc_app r trace scheme sim ft
  in
  let t2 = Clock.now_ns () in
  (sim, ft, app, t1 - t0, t2 - t1)

let setup_ns ~seed inputs scheme =
  let _, _, _, topology_ns, attach_ns = build ~seed inputs scheme in
  topology_ns + attach_ns

let run ?trace ~seed inputs scheme =
  let sim, ft, app, topology_ns, attach_ns = build ?trace ~seed inputs scheme in
  let hosts = ft.Topo.ft_hosts in
  let switches = Array.concat [ ft.Topo.ft_edges; ft.Topo.ft_aggs; ft.Topo.ft_cores ] in
  let links =
    Array.concat
      (Array.map Netsim.Node.uplink hosts
      :: Array.to_list
           (Array.map
              (fun sw -> Array.init (Netsim.Switch.port_count sw) (Netsim.Switch.port sw))
              switches))
  in
  let downlinks = Array.init (Array.length hosts) (downlink ft) in
  let ledger = Check.Ledger.create () in
  Array.iter (Check.Ledger.watch_link ledger) links;
  Array.iter (Check.Ledger.watch_switch ledger) switches;
  Option.iter
    (fun tr ->
      Trace.wrap_hosts tr hosts;
      Trace.tap_switches tr switches)
    trace;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t3 = Clock.now_ns () in
  app.start ();
  (match trace with
  | None -> Engine.Sim.run ~until:app.cap sim
  | Some tr -> Trace.drive tr sim ~until:app.cap);
  let t4 = Clock.now_ns () in
  let g1 = Gc.quick_stat () in
  let r = app.finish () in
  let qsum f = sum (fun l -> f (Netsim.Link.qdisc l) ()) links in
  let hops = sum Netsim.Link.delivered_pkts links in
  let sends = sum Netsim.Link.sends links in
  let drops = qsum (fun q -> q.Netsim.Qdisc.drops) in
  let marks = qsum (fun q -> q.Netsim.Qdisc.marks) in
  let trims = qsum (fun q -> q.Netsim.Qdisc.trims) in
  let switch_rx = sum Netsim.Switch.received switches in
  let host_rx = sum Netsim.Link.delivered_pkts downlinks in
  let events = Engine.Sim.events_processed sim in
  let pool_fresh, pool_reused =
    List.fold_left
      (fun (f, u) p ->
        let f', u' = Netsim.Packet.pool_stats p in
        (f + f', u + u'))
      (0, 0) r.a_pools
  in
  let line =
    Printf.sprintf "%s hops=%d sends=%d events=%d drops=%d marks=%d trims=%d %s"
      (scheme_name scheme) hops sends events drops marks trims r.a_line
  in
  let workload_checks =
    match inputs with
    | Inputs.Fabric _ ->
      check (drops > 0) "fabric_perm: no qdisc drops"
      @ check (marks > 0) "fabric_perm: no ECN marks"
      @
      let offered = sum (fun h -> Netsim.Link.sends (Netsim.Node.uplink h)) hosts in
      let switch_drops = sum Netsim.Switch.dropped switches in
      check
        (r.a_messages + drops + switch_drops = offered)
        "fabric_perm: delivered %d + dropped %d + %d <> offered %d" r.a_messages
        drops switch_drops offered
    | Inputs.Rpc _ -> []
  in
  let trace_checks =
    match trace with
    | None -> []
    | Some tr -> Trace.failures tr ~switch_received:switch_rx ~host_deliveries:host_rx
  in
  { scheme;
    topology_ns;
    attach_ns;
    wall_ns = t4 - t3;
    events;
    hops;
    sends;
    drops;
    marks;
    trims;
    switch_rx;
    pool_fresh;
    pool_reused;
    host_rx;
    messages = r.a_messages;
    retransmits = r.a_retransmits;
    rx_bytes = r.a_rx_bytes;
    uplink_bytes = sum (fun h -> Netsim.Link.bytes_sent (Netsim.Node.uplink h)) hosts;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    summary_ns = r.a_summary_ns;
    outcome_line = line;
    digest = Digest.to_hex (Digest.string line);
    failures =
      List.map (fun s -> "ledger: " ^ s) (Check.Ledger.failures ledger)
      @ r.a_checks @ workload_checks @ trace_checks }
