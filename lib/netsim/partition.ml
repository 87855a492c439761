(* Domain partitioning for conservative parallel simulation.

   A partitioned world is N ordinary single-threaded worlds — each
   with its own [Sim], [Topology] (disjoint address range) and devices
   — stitched together by *conduits*: unidirectional cross-partition
   edges.  A conduit's link lives entirely in the source partition
   with zero propagation delay (the qdisc and serialization stay
   where the transmitting device is); the propagation across the cut
   is modelled by the conduit itself, which timestamps each delivered
   packet with [arrival = now + delay] and parks it in a per-conduit
   FIFO.  At every epoch barrier ([exchange], called by
   [Runner.Epoch.run] on the main domain only) the parked packets are
   scheduled into their destination sims as ordinary events.

   Lookahead: the epoch window length is the minimum conduit delay,
   so a packet emitted inside a window always arrives at or after the
   window's end — its destination partition cannot need it while the
   window is still running.  ([Sim.run_before] keeps windows
   half-open, so an arrival landing exactly on a boundary is
   scheduled before the window that executes it.)

   Packet ownership crosses the cut with the packet: the source
   partition drops every reference when the conduit fires (conduit
   links carry no pool, and the flit queue is drained at the
   barrier), and the destination only sees the packet after the
   barrier's happens-before edge.  Payloads are safe to hand over
   because the codebase never mutates a payload in place — headers
   are replaced with freshly built values ([Wire.add_feedback],
   [Mtp_switch.stamp]) — so no two domains ever race on one.

   Canonical exchange order makes the merge deterministic: flits are
   gathered per destination in conduit creation order (FIFO within a
   conduit) and stable-sorted by arrival time, so equal-time arrivals
   tie-break by (conduit creation index, emission order) — a pure
   function of simulation state, never of domain scheduling.  See
   DESIGN.md "Conservative parallel DES". *)

type flit = {
  f_at : Engine.Time.t;
  f_pkt : Packet.t;
  f_deliver : Packet.t -> unit;
}

type conduit = {
  c_dst : int;
  c_delay : Engine.Time.t;
  mutable c_q : flit list; (* reversed emission order *)
}

type t = {
  p_sims : Engine.Sim.t array;
  p_topos : Topology.t array;
  mutable p_conduits : conduit list; (* reversed creation order *)
}

let create ?(seed = 42) ?(addr_stride = 1 lsl 16) ~nparts () =
  if nparts < 1 then invalid_arg "Partition.create: nparts must be >= 1";
  let base = Engine.Rng.create seed in
  let sims =
    Array.init nparts (fun p ->
        Engine.Sim.create
          ~seed:(Engine.Rng.as_seed (Engine.Rng.derive base p))
          ())
  in
  let topos =
    Array.init nparts (fun p ->
        Topology.create ~first_addr:(p * addr_stride) sims.(p))
  in
  { p_sims = sims; p_topos = topos; p_conduits = [] }

let nparts t = Array.length t.p_sims

let sim t p = t.p_sims.(p)

let topo t p = t.p_topos.(p)

let cross_link t ~src ~dst ~name ~rate ~delay ?qdisc ~deliver () =
  if src = dst then invalid_arg "Partition.cross_link: src = dst";
  if delay <= 0 then
    invalid_arg "Partition.cross_link: cross-partition delay must be > 0";
  let link =
    Link.create t.p_sims.(src) ~name ~rate ~delay:Engine.Time.zero ?qdisc ()
  in
  let c = { c_dst = dst; c_delay = delay; c_q = [] } in
  let src_sim = t.p_sims.(src) in
  Link.set_dst link (fun pkt ->
      c.c_q <-
        { f_at = Engine.Sim.now src_sim + c.c_delay;
          f_pkt = pkt;
          f_deliver = deliver }
        :: c.c_q);
  t.p_conduits <- c :: t.p_conduits;
  link

let lookahead t =
  match t.p_conduits with
  | [] -> invalid_arg "Partition.lookahead: world has no conduit"
  | c :: rest -> List.fold_left (fun acc c -> min acc c.c_delay) c.c_delay rest

(* Drain every conduit into its destination sim.  Runs on the main
   domain between epochs. *)
let exchange t =
  let conduits = List.rev t.p_conduits in
  let n = nparts t in
  for dst = 0 to n - 1 do
    let flits =
      List.concat_map
        (fun c ->
          if c.c_dst = dst && c.c_q <> [] then begin
            let q = List.rev c.c_q in
            c.c_q <- [];
            q
          end
          else [])
        conduits
    in
    match flits with
    | [] -> ()
    | flits ->
      let flits =
        List.stable_sort (fun a b -> compare (a.f_at : int) b.f_at) flits
      in
      let dsim = t.p_sims.(dst) in
      List.iter
        (fun f ->
          ignore
            (Engine.Sim.schedule dsim ~at:f.f_at (fun () ->
                 f.f_deliver f.f_pkt)))
        flits
  done

let run ?(jobs = 1) ~until t =
  let lookahead = lookahead t in
  let parts =
    Array.map
      (fun s ->
        { Runner.Epoch.advance = (fun limit -> Engine.Sim.run_before s ~limit);
          finish = (fun u -> Engine.Sim.run ~until:u s);
          next_time = (fun () -> Engine.Sim.next_time s) })
      t.p_sims
  in
  Runner.Epoch.run ~jobs ~lookahead ~until ~exchange:(fun () -> exchange t)
    parts

(* Partitioned two-tier Clos, the datacenter-scale workhorse: one
   partition per leaf (hosts + leaf switch), spines dealt round-robin
   to partitions.  Same shape, rates, routing (per-spine ECMP entries
   at the leaves, static at the spines) and host addresses as
   [Topology.leaf_spine] — intra-partition fabric links keep the full
   [delay]; cross-partition ones are conduits with the same [delay],
   so every path's latency matches the single-sim build and the
   lookahead is exactly [delay]. *)

type leaf_spine = {
  pls_world : t;
  pls_hosts : Node.t array array;
  pls_leaves : Switch.t array;
  pls_spines : Switch.t array;
  pls_spine_part : int array;
  pls_links : Link.t array;
  pls_link_part : int array;
}

let leaf_spine ?(seed = 42) ~leaves ~spines ~hosts_per_leaf ~host_rate
    ~fabric_rate ~delay ?uplink_qdisc () =
  if leaves < 2 then invalid_arg "Partition.leaf_spine: need >= 2 leaves";
  let t = create ~seed ~addr_stride:hosts_per_leaf ~nparts:leaves () in
  let spine_part = Array.init spines (fun s -> s mod leaves) in
  let leaf_sw =
    Array.init leaves (fun l -> Topology.switch (topo t l) (Printf.sprintf "leaf%d" l))
  in
  let spine_sw =
    Array.init spines (fun s ->
        Topology.switch (topo t spine_part.(s)) (Printf.sprintf "spine%d" s))
  in
  let hosts =
    Array.init leaves (fun l ->
        Array.init hosts_per_leaf (fun i ->
            Topology.host (topo t l) (Printf.sprintf "h%d_%d" l i)))
  in
  let links = ref [] in
  let link_parts = ref [] in
  let record part link =
    links := link :: !links;
    link_parts := part :: !link_parts
  in
  let leaf_routes = Array.init leaves (fun _ -> Routing.create ()) in
  let spine_routes = Array.init spines (fun _ -> Routing.create ()) in
  (* Hosts onto their leaf — wholly intra-partition. *)
  Array.iteri
    (fun l per_leaf ->
      Array.iter
        (fun h ->
          let port =
            Topology.wire_host_to_switch (topo t l) h leaf_sw.(l)
              ~rate:host_rate ~delay ()
          in
          record l (Node.uplink h);
          record l (Switch.port leaf_sw.(l) port);
          Routing.add leaf_routes.(l) (Node.addr h) port)
        per_leaf)
    hosts;
  (* Full leaf <-> spine mesh; a direction is a plain link when both
     endpoints share a partition, a conduit otherwise. *)
  let fabric ~src_part ~dst_part ~name ?qdisc deliver_sw =
    if src_part = dst_part then begin
      let link =
        Link.create (sim t src_part) ~name ~rate:fabric_rate ~delay ?qdisc ()
      in
      Link.set_dst link (Switch.receive deliver_sw);
      link
    end
    else
      cross_link t ~src:src_part ~dst:dst_part ~name ~rate:fabric_rate ~delay
        ?qdisc
        ~deliver:(Switch.receive deliver_sw)
        ()
  in
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      let sp = spine_part.(s) in
      let qdisc =
        match uplink_qdisc with Some f -> Some (f ()) | None -> None
      in
      let up =
        fabric ~src_part:l ~dst_part:sp
          ~name:(Printf.sprintf "leaf%d->spine%d" l s)
          ?qdisc spine_sw.(s)
      in
      let up_port = Switch.add_port leaf_sw.(l) up in
      record l up;
      let down =
        fabric ~src_part:sp ~dst_part:l
          ~name:(Printf.sprintf "spine%d->leaf%d" s l)
          leaf_sw.(l)
      in
      let down_port = Switch.add_port spine_sw.(s) down in
      record sp down;
      Array.iteri
        (fun l' per_leaf ->
          Array.iter
            (fun h ->
              if l' <> l then Routing.add leaf_routes.(l) (Node.addr h) up_port;
              if l' = l then
                Routing.add spine_routes.(s) (Node.addr h) down_port)
            per_leaf)
        hosts
    done
  done;
  Array.iteri
    (fun l sw -> Switch.set_forward sw (Routing.ecmp leaf_routes.(l)))
    leaf_sw;
  Array.iteri
    (fun s sw -> Switch.set_forward sw (Routing.static spine_routes.(s)))
    spine_sw;
  { pls_world = t;
    pls_hosts = hosts;
    pls_leaves = leaf_sw;
    pls_spines = spine_sw;
    pls_spine_part = spine_part;
    pls_links = Array.of_list (List.rev !links);
    pls_link_part = Array.of_list (List.rev !link_parts) }

(* Partitioned k-ary fat-tree: pods are the natural partitions (hosts,
   edge and agg switches of pod [p] live in partition [p]); cores are
   dealt round-robin.  Same shape, names, addresses, interval routes
   and ECMP salts as [Topology.fat_tree] (base address 0), so a split
   world forwards identically to the single-sim build; intra-pod links
   keep the full [delay] and every agg<->core direction that crosses
   partitions is a conduit with that same [delay] (lookahead =
   [delay]). *)

type fat_tree = {
  pft_world : t;
  pft_k : int;
  pft_hosts : Node.t array;
  pft_edges : Switch.t array;
  pft_aggs : Switch.t array;
  pft_cores : Switch.t array;
  pft_core_part : int array;
  pft_links : Link.t array;
  pft_link_part : int array;
}

let fat_tree ?(seed = 42) ~k ~host_rate ~fabric_rate ~delay ?uplink_qdisc ()
    =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Partition.fat_tree: k must be even and >= 2";
  if delay <= 0 then
    invalid_arg "Partition.fat_tree: delay must be > 0 (conduit lookahead)";
  let half = k / 2 in
  let pods = k in
  let hosts_per_pod = half * half in
  let nhosts = pods * hosts_per_pod in
  let top = nhosts - 1 in
  let t = create ~seed ~addr_stride:hosts_per_pod ~nparts:pods () in
  let nedges = pods * half and naggs = pods * half in
  let ncores = half * half in
  let core_part = Array.init ncores (fun c -> c mod pods) in
  let edges =
    Array.init nedges (fun i ->
        Topology.switch (topo t (i / half))
          (Printf.sprintf "edge%d_%d" (i / half) (i mod half)))
  in
  let aggs =
    Array.init naggs (fun i ->
        Topology.switch (topo t (i / half))
          (Printf.sprintf "agg%d_%d" (i / half) (i mod half)))
  in
  let cores =
    Array.init ncores (fun c ->
        Topology.switch (topo t core_part.(c)) (Printf.sprintf "core%d" c))
  in
  let edge_routes =
    Array.init nedges (fun i ->
        Routing.create ~salt:(Topology.fabric_salt i) ())
  in
  let agg_routes =
    Array.init naggs (fun i ->
        Routing.create ~salt:(Topology.fabric_salt (nedges + i)) ())
  in
  let core_routes =
    Array.init ncores (fun i ->
        Routing.create ~salt:(Topology.fabric_salt (nedges + naggs + i)) ())
  in
  let hosts =
    Array.init nhosts (fun i ->
        let pod = i / hosts_per_pod in
        let rem = i mod hosts_per_pod in
        Topology.host (topo t pod)
          (Printf.sprintf "h%d_%d_%d" pod (rem / half) (rem mod half)))
  in
  let links = ref [] in
  let link_parts = ref [] in
  let record part link =
    links := link :: !links;
    link_parts := part :: !link_parts
  in
  Array.iteri
    (fun i h ->
      let e = i / half in
      let pod = e / half in
      let port =
        Topology.wire_host_to_switch (topo t pod) h edges.(e)
          ~rate:host_rate ~delay ()
      in
      record pod (Node.uplink h);
      record pod (Switch.port edges.(e) port);
      Routing.add edge_routes.(e) (Node.addr h) port)
    hosts;
  (* Edge <-> agg mesh: wholly intra-pod. *)
  for ei = 0 to nedges - 1 do
    let pod = ei / half in
    let my_lo = ei * half and my_hi = (ei * half) + half - 1 in
    for a = 0 to half - 1 do
      let ai = (pod * half) + a in
      let qdisc =
        match uplink_qdisc with Some f -> Some (f ()) | None -> None
      in
      let up =
        Link.create (sim t pod)
          ~name:(Printf.sprintf "%s->%s" (Switch.name edges.(ei))
                   (Switch.name aggs.(ai)))
          ~rate:fabric_rate ~delay ?qdisc ()
      in
      Link.set_dst up (Switch.receive aggs.(ai));
      let up_port = Switch.add_port edges.(ei) up in
      record pod up;
      let down =
        Link.create (sim t pod)
          ~name:(Printf.sprintf "%s->%s" (Switch.name aggs.(ai))
                   (Switch.name edges.(ei)))
          ~rate:fabric_rate ~delay ()
      in
      Link.set_dst down (Switch.receive edges.(ei));
      let down_port = Switch.add_port aggs.(ai) down in
      record pod down;
      Routing.add_range agg_routes.(ai) ~lo:my_lo ~hi:my_hi down_port;
      if my_lo > 0 then
        Routing.add_range edge_routes.(ei) ~lo:0 ~hi:(my_lo - 1) up_port;
      if my_hi < top then
        Routing.add_range edge_routes.(ei) ~lo:(my_hi + 1) ~hi:top up_port
    done
  done;
  (* Agg <-> core: a direction is a plain link when the core shares
     the pod's partition, a conduit otherwise. *)
  let fabric ~src_part ~dst_part ~name ?qdisc deliver_sw =
    if src_part = dst_part then begin
      let link =
        Link.create (sim t src_part) ~name ~rate:fabric_rate ~delay ?qdisc ()
      in
      Link.set_dst link (Switch.receive deliver_sw);
      link
    end
    else
      cross_link t ~src:src_part ~dst:dst_part ~name ~rate:fabric_rate ~delay
        ?qdisc
        ~deliver:(Switch.receive deliver_sw)
        ()
  in
  for ai = 0 to naggs - 1 do
    let pod = ai / half and a = ai mod half in
    let pod_lo = pod * hosts_per_pod in
    let pod_hi = ((pod + 1) * hosts_per_pod) - 1 in
    for j = 0 to half - 1 do
      let ci = (a * half) + j in
      let cp = core_part.(ci) in
      let qdisc =
        match uplink_qdisc with Some f -> Some (f ()) | None -> None
      in
      let up =
        fabric ~src_part:pod ~dst_part:cp
          ~name:(Printf.sprintf "%s->%s" (Switch.name aggs.(ai))
                   (Switch.name cores.(ci)))
          ?qdisc cores.(ci)
      in
      let up_port = Switch.add_port aggs.(ai) up in
      record pod up;
      let down =
        fabric ~src_part:cp ~dst_part:pod
          ~name:(Printf.sprintf "%s->%s" (Switch.name cores.(ci))
                   (Switch.name aggs.(ai)))
          aggs.(ai)
      in
      let down_port = Switch.add_port cores.(ci) down in
      record cp down;
      Routing.add_range core_routes.(ci) ~lo:pod_lo ~hi:pod_hi down_port;
      if pod_lo > 0 then
        Routing.add_range agg_routes.(ai) ~lo:0 ~hi:(pod_lo - 1) up_port;
      if pod_hi < top then
        Routing.add_range agg_routes.(ai) ~lo:(pod_hi + 1) ~hi:top up_port
    done
  done;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp edge_routes.(i)))
    edges;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp agg_routes.(i)))
    aggs;
  Array.iteri
    (fun i sw -> Switch.set_forward sw (Routing.ecmp core_routes.(i)))
    cores;
  { pft_world = t;
    pft_k = k;
    pft_hosts = hosts;
    pft_edges = edges;
    pft_aggs = aggs;
    pft_cores = cores;
    pft_core_part = core_part;
    pft_links = Array.of_list (List.rev !links);
    pft_link_part = Array.of_list (List.rev !link_parts) }
