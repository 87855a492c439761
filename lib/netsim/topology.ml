type t = { sim : Engine.Sim.t; mutable next_addr : int }

let create sim = { sim; next_addr = 0 }

let sim t = t.sim

let host t name =
  let node = Node.create t.sim ~name ~addr:t.next_addr in
  t.next_addr <- t.next_addr + 1;
  node

let switch t name = Switch.create t.sim ~name ()

let to_switch link sw = Link.set_dst link (Switch.receive sw)

let to_node link node = Link.set_dst link (Node.receive node)

let wire_host_to_switch t node sw ~rate ~delay ?up_qdisc ?down_qdisc () =
  let up =
    Link.create t.sim
      ~name:(Node.name node ^ "->" ^ Switch.name sw)
      ~rate ~delay ?qdisc:up_qdisc ()
  in
  to_switch up sw;
  Node.attach node up;
  let down =
    Link.create t.sim
      ~name:(Switch.name sw ^ "->" ^ Node.name node)
      ~rate ~delay ?qdisc:down_qdisc ()
  in
  to_node down node;
  Switch.add_port sw down

let wire_switch_pair t a b ~rate ~delay ?ab_qdisc ?ba_qdisc () =
  let ab =
    Link.create t.sim
      ~name:(Switch.name a ^ "->" ^ Switch.name b)
      ~rate ~delay ?qdisc:ab_qdisc ()
  in
  to_switch ab b;
  let ba =
    Link.create t.sim
      ~name:(Switch.name b ^ "->" ^ Switch.name a)
      ~rate ~delay ?qdisc:ba_qdisc ()
  in
  to_switch ba a;
  let port_a = Switch.add_port a ab in
  let port_b = Switch.add_port b ba in
  (port_a, port_b, ab, ba)

let wire_host_pair t a b ~rate ~delay ?ab_qdisc ?ba_qdisc () =
  let ab =
    Link.create t.sim
      ~name:(Node.name a ^ "->" ^ Node.name b)
      ~rate ~delay ?qdisc:ab_qdisc ()
  in
  to_node ab b;
  let ba =
    Link.create t.sim
      ~name:(Node.name b ^ "->" ^ Node.name a)
      ~rate ~delay ?qdisc:ba_qdisc ()
  in
  to_node ba a;
  Node.add_route a (Node.addr b) ab;
  Node.add_route b (Node.addr a) ba;
  (* Also make them each other's default uplink when unattached, so
     simple two-host setups need no further wiring. *)
  (try ignore (Node.uplink a) with Failure _ -> Node.attach a ab);
  (try ignore (Node.uplink b) with Failure _ -> Node.attach b ba);
  (ab, ba)

type dumbbell = {
  db_senders : Node.t array;
  db_receivers : Node.t array;
  db_left : Switch.t;
  db_right : Switch.t;
  db_bottleneck : Link.t;
}

let dumbbell t ~n ~edge_rate ~bottleneck_rate ~delay ?bottleneck_qdisc () =
  let left = switch t "left" and right = switch t "right" in
  let senders = Array.init n (fun i -> host t (Printf.sprintf "snd%d" i)) in
  let receivers = Array.init n (fun i -> host t (Printf.sprintf "rcv%d" i)) in
  let left_routes = Routing.create () and right_routes = Routing.create () in
  Array.iter
    (fun s ->
      let port =
        wire_host_to_switch t s left ~rate:edge_rate ~delay ()
      in
      Routing.add left_routes (Node.addr s) port)
    senders;
  Array.iter
    (fun r ->
      let port =
        wire_host_to_switch t r right ~rate:edge_rate ~delay ()
      in
      Routing.add right_routes (Node.addr r) port)
    receivers;
  let lr_port, rl_port, bottleneck, _ =
    wire_switch_pair t left right ~rate:bottleneck_rate ~delay
      ?ab_qdisc:bottleneck_qdisc ()
  in
  Array.iter
    (fun r -> Routing.add left_routes (Node.addr r) lr_port)
    receivers;
  Array.iter
    (fun s -> Routing.add right_routes (Node.addr s) rl_port)
    senders;
  Switch.set_forward left (Routing.static left_routes);
  Switch.set_forward right (Routing.static right_routes);
  { db_senders = senders; db_receivers = receivers; db_left = left;
    db_right = right; db_bottleneck = bottleneck }

type two_path = {
  tp_src : Node.t;
  tp_dst : Node.t;
  tp_ingress : Switch.t;
  tp_egress : Switch.t;
  tp_link_a : Link.t;
  tp_link_b : Link.t;
  tp_port_a : int;
  tp_port_b : int;
  tp_routes : Routing.t;
}

let two_path t ~rate_a ~rate_b ~delay_a ~delay_b ~edge_rate ?qdisc_a ?qdisc_b
    () =
  let src = host t "src" and dst = host t "dst" in
  let ingress = switch t "ingress" and egress = switch t "egress" in
  let src_port = wire_host_to_switch t src ingress ~rate:edge_rate
      ~delay:(Engine.Time.ns 500) () in
  let dst_port = wire_host_to_switch t dst egress ~rate:edge_rate
      ~delay:(Engine.Time.ns 500) () in
  let link_a =
    Link.create t.sim ~name:"pathA" ~rate:rate_a ~delay:delay_a
      ?qdisc:qdisc_a ()
  in
  to_switch link_a egress;
  let link_b =
    Link.create t.sim ~name:"pathB" ~rate:rate_b ~delay:delay_b
      ?qdisc:qdisc_b ()
  in
  to_switch link_b egress;
  let port_a = Switch.add_port ingress link_a in
  let port_b = Switch.add_port ingress link_b in
  (* Dedicated reverse link so ACKs never queue behind data. *)
  let reverse =
    Link.create t.sim ~name:"reverse" ~rate:(Engine.Time.gbps 400)
      ~delay:delay_a ()
  in
  to_switch reverse ingress;
  let reverse_port = Switch.add_port egress reverse in
  let routes = Routing.create () in
  Routing.add routes (Node.addr dst) port_a;
  Routing.add routes (Node.addr dst) port_b;
  Routing.add routes (Node.addr src) src_port;
  Switch.set_forward ingress (Routing.static routes);
  let egress_routes = Routing.create () in
  Routing.add egress_routes (Node.addr dst) dst_port;
  Routing.add egress_routes (Node.addr src) reverse_port;
  Switch.set_forward egress (Routing.static egress_routes);
  { tp_src = src; tp_dst = dst; tp_ingress = ingress; tp_egress = egress;
    tp_link_a = link_a; tp_link_b = link_b; tp_port_a = port_a;
    tp_port_b = port_b; tp_routes = routes }

type chain = {
  ch_client : Node.t;
  ch_proxy : Node.t;
  ch_server : Node.t;
  ch_client_to_proxy : Link.t;
  ch_proxy_to_server : Link.t;
}

let proxy_chain t ~front_rate ~back_rate ~delay ?front_qdisc ?back_qdisc () =
  let client = host t "client" in
  let proxy = host t "proxy" in
  let server = host t "server" in
  let c2p, _p2c =
    wire_host_pair t client proxy ~rate:front_rate ~delay
      ?ab_qdisc:front_qdisc ()
  in
  let p2s, _s2p =
    wire_host_pair t proxy server ~rate:back_rate ~delay ?ab_qdisc:back_qdisc
      ()
  in
  { ch_client = client; ch_proxy = proxy; ch_server = server;
    ch_client_to_proxy = c2p; ch_proxy_to_server = p2s }

type star = {
  st_clients : Node.t array;
  st_server : Node.t;
  st_switch : Switch.t;
  st_server_port : int;
}

type fat_tree = {
  ft_k : int;
  ft_hosts : Node.t array;
  ft_edges : Switch.t array;
  ft_aggs : Switch.t array;
  ft_cores : Switch.t array;
}

let fat_tree t ~k ~host_rate ~fabric_rate ~delay ?uplink_qdisc ?host_qdisc () =
  if t.next_addr <> 0 then
    invalid_arg "Topology.fat_tree: the topology already has hosts";
  let net =
    Fabric.into_sim t.sim
      (Fabric.fat_tree ~k ~host_rate ~fabric_rate ~delay ?uplink_qdisc
         ?host_qdisc ())
  in
  t.next_addr <- Array.length net.Fabric.hosts;
  let tier = k * k / 2 in
  { ft_k = k;
    ft_hosts = net.Fabric.hosts;
    ft_edges = Array.sub net.Fabric.switches 0 tier;
    ft_aggs = Array.sub net.Fabric.switches tier tier;
    ft_cores = Array.sub net.Fabric.switches (2 * tier) (k * k / 4) }

let star t ~n ~rate ~delay ?server_qdisc () =
  let sw = switch t "star" in
  let clients = Array.init n (fun i -> host t (Printf.sprintf "cli%d" i)) in
  let server = host t "server" in
  let routes = Routing.create () in
  Array.iter
    (fun c ->
      let port = wire_host_to_switch t c sw ~rate ~delay () in
      Routing.add routes (Node.addr c) port)
    clients;
  let server_port =
    wire_host_to_switch t server sw ~rate ~delay ?down_qdisc:server_qdisc ()
  in
  Routing.add routes (Node.addr server) server_port;
  Switch.set_forward sw (Routing.static routes);
  { st_clients = clients; st_server = server; st_switch = sw;
    st_server_port = server_port }
