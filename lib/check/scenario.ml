(* Build and drive one fuzz scenario from a Spec.

   Everything observable is funneled into a single rendered string
   ([digest]): an event trace (message deliveries and completions,
   periodic queue samples) plus a footer of final per-device and
   per-stack counters.  The differential runner re-renders the same
   spec under a paired configuration and compares digests
   byte-for-byte — anything a user could see must appear here, and
   nothing nondeterministic (wall clock, engine event counts) may. *)

open Netsim

type fault_mode = As_spec | Noop

type t = {
  sim : Engine.Sim.t;
  links : Link.t array;
  switches : Switch.t array;
  host_wraps : Host.t array;
  stacks : Transport_intf.packed array;
  endpoints : Mtp.Endpoint.t list; (* non-empty only for T_mtp *)
  plan : Fault.t option;
  ledger : Ledger.t;
  monotone : Oracle.monotone;
  spacings : Oracle.spacing array;
  completions : int array;
  trace : Buffer.t;
  duration : Engine.Time.t;
}

(* Distinct RED instances need distinct-but-deterministic streams; a
   per-build counter keyed into the spec seed keeps creation-order
   determinism across paired runs. *)
let make_qdisc spec counter () =
  incr counter;
  match spec.Spec.qdisc with
  | Spec.Q_fifo cap -> Qdisc.fifo ~cap_pkts:cap ()
  | Spec.Q_ecn { cap; thresh } ->
    Qdisc.ecn ~cap_pkts:cap ~mark_threshold:thresh ()
  | Spec.Q_red { cap; min_th; max_th } ->
    let rng = Engine.Rng.create (0x4ED lxor spec.Spec.seed lxor !counter) in
    Qdisc.red ~rng ~cap_pkts:cap ~min_th ~max_th:(max max_th (min_th + 1)) ()
  | Spec.Q_trim cap -> Qdisc.trimming ~cap_pkts:cap ~header_size:64 ()

(* Hosts eligible as flow sources/destinations, in a deterministic
   order; flow indices are reduced mod these arrays so any spec maps
   onto any topology. *)
type endpoints_shape = {
  srcs : Node.t array;
  dsts : Node.t array;
  all : Node.t array;
}

(* The Clos topologies are fabric descriptions: [build] instantiates
   them into one sim, [run_domains] into per-leaf / per-pod
   partitions.  [q], the uplink qdisc factory, runs once per uplink
   when a description is instantiated. *)
let fabric_of spec q =
  let rate = Engine.Time.mbps spec.Spec.rate_mbps in
  let delay = Engine.Time.us spec.Spec.delay_us in
  match spec.Spec.topo with
  | Spec.Leaf_spine { leaves; spines; hosts } ->
    Some
      (Fabric.leaf_spine ~leaves ~spines ~hosts_per_leaf:hosts ~host_rate:rate
         ~fabric_rate:rate ~delay ~uplink_qdisc:q ())
  | Spec.Fat_tree { k } ->
    Some
      (Fabric.fat_tree ~k ~host_rate:rate ~fabric_rate:rate ~delay
         ~uplink_qdisc:q ())
  | Spec.Pair | Spec.Star _ | Spec.Dumbbell _ | Spec.Two_path -> None

let build_topology spec topo =
  let rate = Engine.Time.mbps spec.Spec.rate_mbps in
  let delay = Engine.Time.us spec.Spec.delay_us in
  let counter = ref 0 in
  let q = make_qdisc spec counter in
  match spec.Spec.topo with
  | Spec.Pair ->
    let a = Topology.host topo "a" and b = Topology.host topo "b" in
    ignore
      (Topology.wire_host_pair topo a b ~rate ~delay ~ab_qdisc:(q ())
         ~ba_qdisc:(q ()) ());
    let shape = { srcs = [| a; b |]; dsts = [| a; b |]; all = [| a; b |] } in
    (shape, [||])
  | Spec.Star n ->
    let st = Topology.star topo ~n ~rate ~delay ~server_qdisc:(q ()) () in
    let all = Array.append st.Topology.st_clients [| st.Topology.st_server |] in
    ({ srcs = all; dsts = all; all }, [| st.Topology.st_switch |])
  | Spec.Dumbbell n ->
    let db =
      Topology.dumbbell topo ~n ~edge_rate:rate ~bottleneck_rate:rate ~delay
        ~bottleneck_qdisc:(q ()) ()
    in
    let all =
      Array.append db.Topology.db_senders db.Topology.db_receivers
    in
    ( { srcs = db.Topology.db_senders; dsts = db.Topology.db_receivers; all },
      [| db.Topology.db_left; db.Topology.db_right |] )
  | Spec.Two_path ->
    let tp =
      Topology.two_path topo ~rate_a:rate ~rate_b:rate ~delay_a:delay
        ~delay_b:(2 * delay) ~edge_rate:(2 * rate) ~qdisc_a:(q ())
        ~qdisc_b:(q ()) ()
    in
    ( { srcs = [| tp.Topology.tp_src |];
        dsts = [| tp.Topology.tp_dst |];
        all = [| tp.Topology.tp_src; tp.Topology.tp_dst |] },
      [| tp.Topology.tp_ingress; tp.Topology.tp_egress |] )
  | Spec.Leaf_spine _ | Spec.Fat_tree _ ->
    let net =
      Fabric.into_sim (Topology.sim topo) (Option.get (fabric_of spec q))
    in
    let all = net.Fabric.hosts in
    ({ srcs = all; dsts = all; all }, net.Fabric.switches)

(* Every link in the scenario: host uplinks plus every switch egress
   port, deduplicated by identity (an uplink can be some switch's
   port from the other side — it is not, in this wiring, but stay
   safe). *)
let collect_links (nodes : Node.t array) (switches : Switch.t array) =
  let acc = ref [] in
  let add l = if not (List.memq l !acc) then acc := l :: !acc in
  Array.iter (fun n -> add (Node.uplink n)) nodes;
  Array.iter
    (fun sw ->
      for i = 0 to Switch.port_count sw - 1 do
        add (Switch.port sw i)
      done)
    switches;
  Array.of_list (List.rev !acc)

let attach_stack transport host =
  match transport with
  | Spec.T_tcp ->
    ( Transport_intf.pack
        (module Transport.Tcp.Messaging)
        (Transport.Tcp.attach ~snd_buf:1_000_000 host),
      None )
  | Spec.T_dctcp ->
    ( Transport_intf.pack
        (module Transport.Dctcp.Messaging)
        (Transport.Dctcp.attach ~snd_buf:1_000_000 host),
      None )
  | Spec.T_udp ->
    (Transport_intf.pack (module Transport.Udp.Messaging)
       (Transport.Udp.attach host),
     None)
  | Spec.T_mtp ->
    let ep = Mtp.Endpoint.attach host in
    (Transport_intf.pack (module Mtp.Endpoint.Messaging) ep, Some ep)

let msg_port = 5001

let spacing_failures spacings =
  Array.to_list spacings
  |> List.filter_map (fun s ->
         match Oracle.spacing_result s with Ok () -> None | Error m -> Some m)

let build ?(fault : fault_mode = As_spec) (spec : Spec.t) =
  let sim = Engine.Sim.create ~seed:spec.Spec.seed () in
  let topo = Topology.create sim in
  let shape, switches = build_topology spec topo in
  let links = collect_links shape.all switches in
  let trace = Buffer.create 4096 in
  let tr fmt =
    Printf.ksprintf (fun s -> Buffer.add_string trace (s ^ "\n")) fmt
  in
  (* Stacks + listeners on every host, creation order = address
     order. *)
  let host_wraps = Array.map (fun n -> Host.create n) shape.all in
  let endpoints = ref [] in
  let stacks =
    Array.map
      (fun h ->
        let packed, ep = attach_stack spec.Spec.transport h in
        (match ep with Some e -> endpoints := e :: !endpoints | None -> ());
        packed)
      host_wraps
  in
  Array.iteri
    (fun i stack ->
      let here = Host.addr host_wraps.(i) in
      Transport_intf.listen stack ~port:msg_port
        ~on_message:(fun d ->
          tr "rx t=%d at=%d from=%d:%d size=%d lat=%d"
            (Engine.Sim.now sim) here d.Transport_intf.msg_src
            d.Transport_intf.msg_src_port d.Transport_intf.msg_size
            d.Transport_intf.msg_latency)
        ())
    stacks;
  (* Workload: one message per flow, host indices reduced into the
     topology's valid endpoints. *)
  let flows = Array.of_list spec.Spec.flows in
  let completions = Array.make (Array.length flows) 0 in
  Array.iteri
    (fun i f ->
      let src = f.Spec.f_src mod Array.length shape.srcs in
      let dst = ref (f.Spec.f_dst mod Array.length shape.dsts) in
      (* A host never messages itself; bump the destination. *)
      if shape.dsts.(!dst) == shape.srcs.(src) then
        dst := (!dst + 1) mod Array.length shape.dsts;
      let dst_node = shape.dsts.(!dst) in
      if dst_node != shape.srcs.(src) then begin
        let dst_addr = Node.addr dst_node in
        let src_stack =
          (* srcs is a sub-array of all; find the host wrapper index. *)
          let rec find j =
            if shape.all.(j) == shape.srcs.(src) then stacks.(j)
            else find (j + 1)
          in
          find 0
        in
        ignore
          (Engine.Sim.schedule sim ~at:(Engine.Time.us f.Spec.f_start_us)
             (fun () ->
               Transport_intf.send_message src_stack ~dst:dst_addr
                 ~dst_port:msg_port
                 ~on_complete:(fun fct ->
                   completions.(i) <- completions.(i) + 1;
                   tr "done flow=%d t=%d fct=%d" i (Engine.Sim.now sim) fct)
                 ~size:f.Spec.f_size ()))
      end)
    flows;
  (* Fault plan: the spec's faults, or — for the differential pair —
     a plan that exists but never fires inside the run. *)
  let duration = Engine.Time.us spec.Spec.duration_us in
  let nlinks = Array.length links in
  let plan =
    match (fault, spec.Spec.faults) with
    | As_spec, [] -> None
    | As_spec, faults ->
      let plan = Fault.plan ~seed:(spec.Spec.seed lxor 0xFA171) sim in
      List.iter
        (fun f ->
          match f with
          | Spec.F_down_up { link; down_us; up_us } ->
            let l = links.(link mod nlinks) in
            Fault.link_down plan ~at:(Engine.Time.us down_us) l;
            Fault.link_up plan ~at:(Engine.Time.us up_us) l
          | Spec.F_corrupt { link; rate_pct } ->
            let rate = float_of_int (rate_pct mod 100) /. 100.0 in
            Fault.corrupt plan ~rate links.(link mod nlinks)
          | Spec.F_gilbert { link } ->
            Fault.gilbert_elliott plan links.(link mod nlinks))
        faults;
      Some plan
    | Noop, _ ->
      (* Present but inert: a link_down scheduled after the run ends and
         a zero-loss Gilbert-Elliott wrapper.  A conforming simulator
         produces byte-identical output with or without it. *)
      let plan = Fault.plan ~seed:(spec.Spec.seed lxor 0xFA171) sim in
      Fault.link_down plan
        ~at:(duration + Engine.Time.ms 1)
        links.(0);
      Fault.gilbert_elliott plan ~p_gb:0.0 ~loss_good:0.0 ~loss_bad:0.0
        links.(0);
      Some plan
  in
  (* Oracles attach last, after all qdisc wrapping. *)
  let ledger = Ledger.create () in
  Array.iter (Ledger.watch_link ledger) links;
  Array.iter (Ledger.watch_switch ledger) switches;
  let monotone = Oracle.monotone () in
  Array.iter (fun l -> Link.add_tap l (Oracle.tap monotone)) links;
  Array.iter (fun sw -> Switch.add_tap sw (Oracle.tap monotone)) switches;
  let spacings = Array.map Oracle.spacing links in
  Array.iteri (fun i l -> Link.add_tap l (Oracle.spacing_tap spacings.(i))) links;
  (* Periodic queue sampler: a dense deterministic probe of queue
     state for the differential comparison. *)
  let interval =
    max (Engine.Time.us 40) (duration / 16)
  in
  ignore
    (Engine.Sim.periodic sim ~interval (fun () ->
         Array.iteri
           (fun i l ->
             tr "q t=%d link=%d q=%d f=%d b=%d" (Engine.Sim.now sim) i
               (Link.queued_pkts l) (Link.in_flight_pkts l) (Link.bytes_sent l))
           links;
         Engine.Sim.now sim < duration));
  { sim; links; switches; host_wraps; stacks;
    endpoints = List.rev !endpoints; plan; ledger; monotone; spacings;
    completions;
    trace; duration }

let run t = Engine.Sim.run ~until:t.duration t.sim

(* Internal surface for the mutation test's bug injector. *)
let links t = t.links
let sim t = t.sim
let duration t = t.duration

let digest t =
  let buf = Buffer.create 4096 in
  Buffer.add_buffer buf t.trace;
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "== links ==";
  Array.iteri
    (fun i l ->
      let q = Link.qdisc l in
      line
        "link %d %s sends=%d delivered=%d drops=%d marks=%d trims=%d \
         fault=%d queued=%d inflight=%d bytes=%d"
        i (Link.name l) (Link.sends l) (Link.delivered_pkts l)
        (q.Qdisc.drops ()) (q.Qdisc.marks ()) (q.Qdisc.trims ())
        (Link.fault_drops l) (Link.queued_pkts l) (Link.in_flight_pkts l)
        (Link.bytes_sent l))
    t.links;
  line "== switches ==";
  Array.iter
    (fun sw ->
      line "switch %s rx=%d inj=%d fwd=%d drop=%d cons=%d" (Switch.name sw)
        (Switch.received sw) (Switch.injected sw) (Switch.forwarded sw)
        (Switch.dropped sw) (Switch.consumed sw))
    t.switches;
  line "== stacks ==";
  Array.iteri
    (fun i stack ->
      let s = Transport_intf.stats stack in
      line "stack host=%d id=%s tx=%d rx=%d rx_bytes=%d retx=%d"
        (Host.addr t.host_wraps.(i))
        (Transport_intf.id stack) s.Transport_intf.tx_messages
        s.Transport_intf.rx_messages s.Transport_intf.rx_bytes
        s.Transport_intf.retransmits)
    t.stacks;
  line "== hosts ==";
  Array.iter
    (fun h -> line "host %d unclaimed=%d" (Host.addr h) (Host.unclaimed h))
    t.host_wraps;
  (* Rendered whether or not a plan exists: a plan that never fired
     must be indistinguishable from no plan at all. *)
  line "== faults ==";
  (match t.plan with
  | Some plan ->
    line "fault loss=%d blackholed=%d events=%d" (Fault.loss_drops plan)
      (Fault.blackholed plan)
      (List.length (Fault.events plan))
  | None -> line "fault loss=0 blackholed=0 events=0");
  line "completions %s"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.completions)));
  line "end t=%d" (Engine.Sim.now t.sim);
  Buffer.contents buf

(* ----------------- domain-mode (partitioned) build ------------------ *)

(* The same scenario, its fabric description instantiated into
   partitions at the canonical placement ([Fabric.by_pod]: one
   partition per leaf or pod, the shared top tier dealt round-robin),
   fabric directions that cross partitions realized as conduits with
   the full propagation delay.  The digest
   mirrors [digest]'s structure but concatenates the per-partition
   traces in partition order (a canonical merge — the classic global
   interleave would require the single-sim heap's tie-breaking, which
   a partitioned world deliberately does not reproduce).  The
   differential pairing therefore compares domain-mode against
   domain-mode: jobs=1 (pure sequential, no domains spawned) is the
   reference, higher jobs values must render byte-identical output.

   Workload state is strictly partition-confined: each trace buffer,
   monotone oracle and fault plan belongs to one partition; a flow's
   completion slot is written only by its source host's partition.
   The ledger and MTP endpoints are read on main after the run. *)

(* The description and its placement, when it spans several
   partitions. *)
let partitioned spec q =
  match fabric_of spec q with
  | Some d ->
    let place = Fabric.by_pod d in
    if Array.exists (fun p -> p > 0) place then Some (d, place) else None
  | None -> None

let domains_applicable (spec : Spec.t) =
  Option.is_some (partitioned spec (make_qdisc spec (ref 0)))

let run_domains ?(jobs = 1) (spec : Spec.t) =
  let counter = ref 0 in
  let q = make_qdisc spec counter in
  let d, place =
    match partitioned spec q with
    | Some dp -> dp
    | None -> invalid_arg "Scenario.run_domains: spec is not domains_applicable"
  in
  let parts = Fabric.into_partitions ~seed:spec.Spec.seed ~place d in
  let world = parts.Fabric.world in
  let all = parts.Fabric.net.Fabric.hosts in
  let switches = parts.Fabric.net.Fabric.switches in
  let links = parts.Fabric.net.Fabric.links in
  let link_part = parts.Fabric.link_part in
  let nparts = Partition.nparts world in
  let duration = Engine.Time.us spec.Spec.duration_us in
  let traces = Array.init nparts (fun _ -> Buffer.create 1024) in
  let tr p fmt =
    Printf.ksprintf (fun s -> Buffer.add_string traces.(p) (s ^ "\n")) fmt
  in
  let part_of_host i = parts.Fabric.host_part.(i) in
  let host_wraps = Array.map (fun n -> Host.create n) all in
  let endpoints = ref [] in
  let stacks =
    Array.map
      (fun h ->
        let packed, ep = attach_stack spec.Spec.transport h in
        (match ep with Some e -> endpoints := e :: !endpoints | None -> ());
        packed)
      host_wraps
  in
  Array.iteri
    (fun i stack ->
      let here = Host.addr host_wraps.(i) in
      let p = part_of_host i in
      let psim = Partition.sim world p in
      Transport_intf.listen stack ~port:msg_port
        ~on_message:(fun d ->
          tr p "rx t=%d at=%d from=%d:%d size=%d lat=%d" (Engine.Sim.now psim)
            here d.Transport_intf.msg_src d.Transport_intf.msg_src_port
            d.Transport_intf.msg_size d.Transport_intf.msg_latency)
        ())
    stacks;
  let flows = Array.of_list spec.Spec.flows in
  let completions = Array.make (Array.length flows) 0 in
  let nhosts = Array.length all in
  Array.iteri
    (fun i f ->
      let src = f.Spec.f_src mod nhosts in
      let dst = ref (f.Spec.f_dst mod nhosts) in
      if !dst = src then dst := (!dst + 1) mod nhosts;
      if !dst <> src then begin
        let dst_addr = Node.addr all.(!dst) in
        let p = part_of_host src in
        let psim = Partition.sim world p in
        let src_stack = stacks.(src) in
        ignore
          (Engine.Sim.schedule psim ~at:(Engine.Time.us f.Spec.f_start_us)
             (fun () ->
               Transport_intf.send_message src_stack ~dst:dst_addr
                 ~dst_port:msg_port
                 ~on_complete:(fun fct ->
                   completions.(i) <- completions.(i) + 1;
                   tr p "done flow=%d t=%d fct=%d" i (Engine.Sim.now psim) fct)
                 ~size:f.Spec.f_size ()))
      end)
    flows;
  (* Faults: one plan per partition that needs one, seeded by
     (spec seed, partition) so fault randomness is partition-local and
     jobs-independent. *)
  let plans = Array.make nparts None in
  let plan_for p =
    match plans.(p) with
    | Some pl -> pl
    | None ->
      let pl =
        Fault.plan
          ~seed:(spec.Spec.seed lxor 0xFA171 lxor p)
          (Partition.sim world p)
      in
      plans.(p) <- Some pl;
      pl
  in
  let nlinks = Array.length links in
  List.iter
    (fun f ->
      match f with
      | Spec.F_down_up { link; down_us; up_us } ->
        let li = link mod nlinks in
        let pl = plan_for link_part.(li) in
        Fault.link_down pl ~at:(Engine.Time.us down_us) links.(li);
        Fault.link_up pl ~at:(Engine.Time.us up_us) links.(li)
      | Spec.F_corrupt { link; rate_pct } ->
        let li = link mod nlinks in
        let rate = float_of_int (rate_pct mod 100) /. 100.0 in
        Fault.corrupt (plan_for link_part.(li)) ~rate links.(li)
      | Spec.F_gilbert { link } ->
        let li = link mod nlinks in
        Fault.gilbert_elliott (plan_for link_part.(li)) links.(li))
    spec.Spec.faults;
  (* Oracles: ledger baselines on main (read back on main after the
     run); monotone watchers are per-partition. *)
  let ledger = Ledger.create () in
  Array.iter (Ledger.watch_link ledger) links;
  Array.iter (Ledger.watch_switch ledger) switches;
  let monos = Array.init nparts (fun _ -> Oracle.monotone ()) in
  Array.iteri
    (fun i l -> Link.add_tap l (Oracle.tap monos.(link_part.(i))))
    links;
  Array.iteri
    (fun i sw ->
      Switch.add_tap sw (Oracle.tap monos.(parts.Fabric.switch_part.(i))))
    switches;
  (* Spacing watchers are per link, so each belongs to one partition. *)
  let spacings = Array.map Oracle.spacing links in
  Array.iteri (fun i l -> Link.add_tap l (Oracle.spacing_tap spacings.(i))) links;
  (* Per-partition queue sampler over the partition's own links,
     keyed by global link index. *)
  let interval = max (Engine.Time.us 40) (duration / 16) in
  for p = 0 to nparts - 1 do
    let psim = Partition.sim world p in
    ignore
      (Engine.Sim.periodic psim ~interval (fun () ->
           Array.iteri
             (fun i l ->
               if link_part.(i) = p then
                 tr p "q t=%d link=%d q=%d f=%d b=%d" (Engine.Sim.now psim) i
                   (Link.queued_pkts l) (Link.in_flight_pkts l)
                   (Link.bytes_sent l))
             links;
           Engine.Sim.now psim < duration))
  done;
  Partition.run ~jobs ~until:duration world;
  (* Post-run, all on main. *)
  let failures =
    Ledger.failures ledger
    @ List.concat_map
        (fun m ->
          match Oracle.monotone_result m with Ok () -> [] | Error e -> [ e ])
        (Array.to_list monos)
    @ spacing_failures spacings
    @ (match Oracle.completions_once completions with
      | Ok () -> []
      | Error m -> [ m ])
    @ List.filter_map
        (fun ep ->
          match Oracle.endpoint_ok ep with Ok () -> None | Error m -> Some m)
        (List.rev !endpoints)
  in
  match failures with
  | _ :: _ -> Error (String.concat "; " failures)
  | [] ->
    let buf = Buffer.create 4096 in
    Array.iter (Buffer.add_buffer buf) traces;
    let line fmt =
      Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
    in
    line "== links ==";
    Array.iteri
      (fun i l ->
        let qd = Link.qdisc l in
        line
          "link %d %s sends=%d delivered=%d drops=%d marks=%d trims=%d \
           fault=%d queued=%d inflight=%d bytes=%d"
          i (Link.name l) (Link.sends l) (Link.delivered_pkts l)
          (qd.Qdisc.drops ()) (qd.Qdisc.marks ()) (qd.Qdisc.trims ())
          (Link.fault_drops l) (Link.queued_pkts l) (Link.in_flight_pkts l)
          (Link.bytes_sent l))
      links;
    line "== switches ==";
    Array.iter
      (fun sw ->
        line "switch %s rx=%d inj=%d fwd=%d drop=%d cons=%d" (Switch.name sw)
          (Switch.received sw) (Switch.injected sw) (Switch.forwarded sw)
          (Switch.dropped sw) (Switch.consumed sw))
      switches;
    line "== stacks ==";
    Array.iteri
      (fun i stack ->
        let s = Transport_intf.stats stack in
        line "stack host=%d id=%s tx=%d rx=%d rx_bytes=%d retx=%d"
          (Host.addr host_wraps.(i))
          (Transport_intf.id stack) s.Transport_intf.tx_messages
          s.Transport_intf.rx_messages s.Transport_intf.rx_bytes
          s.Transport_intf.retransmits)
      stacks;
    line "== hosts ==";
    Array.iter
      (fun h -> line "host %d unclaimed=%d" (Host.addr h) (Host.unclaimed h))
      host_wraps;
    line "== faults ==";
    let loss, bh, evs =
      Array.fold_left
        (fun (l, b, e) pl ->
          match pl with
          | None -> (l, b, e)
          | Some pl ->
            ( l + Fault.loss_drops pl,
              b + Fault.blackholed pl,
              e + List.length (Fault.events pl) ))
        (0, 0, 0) plans
    in
    line "fault loss=%d blackholed=%d events=%d" loss bh evs;
    line "completions %s"
      (String.concat ","
         (Array.to_list (Array.map string_of_int completions)));
    for p = 0 to nparts - 1 do
      line "part %d end t=%d" p (Engine.Sim.now (Partition.sim world p))
    done;
    Ok (Buffer.contents buf)

let oracle_failures t =
  let ledger = Ledger.failures t.ledger in
  let spacing = spacing_failures t.spacings in
  let monotone =
    match Oracle.monotone_result t.monotone with
    | Ok () -> []
    | Error msg -> [ msg ]
  in
  let completions =
    match Oracle.completions_once t.completions with
    | Ok () -> []
    | Error msg -> [ msg ]
  in
  let endpoints =
    List.filter_map
      (fun ep ->
        match Oracle.endpoint_ok ep with
        | Ok () -> None
        | Error msg -> Some msg)
      t.endpoints
  in
  ledger @ monotone @ spacing @ completions @ endpoints
