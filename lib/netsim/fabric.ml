(* Fabric descriptions and their two instantiators.

   The generators below are the only place the Clos shapes are
   written down.  Both instantiators walk the same arrays in the same
   order — nodes (with each switch's table and forwarding function),
   then links (creating ports and calling qdisc factories), then
   routes — so a fabric built into one sim and the same fabric built
   into partitions agree on everything but where each device lives. *)

type forward = Ecmp | Static

type kind = Host of Packet.addr | Switch of { salt : int; forward : forward }

type node = { name : string; kind : kind; pod : int }

type link = {
  src : int;
  dst : int;
  rate : Engine.Time.rate;
  delay : Engine.Time.t;
  qdisc : (unit -> Qdisc.t) option;
}

type route = { at : int; lo : Packet.addr; hi : Packet.addr; via : int; shared : bool }

type t = { nodes : node array; links : link array; routes : route array }

(* ------------------------------ generators ------------------------------ *)

(* Deterministic nonzero ECMP salts: switch ordinal [i] of a salted
   fabric hashes flow_hash differently at every table (see
   Routing.create). *)
let salt i = 0x5DEECE66D + i

(* A description under construction: growable arrays, each element
   stored once (no intermediate lists) since a large fabric's set-up
   time is dominated by allocation.  Arrays grow with static filler
   records: [Array.make] with a young filler forces a minor
   collection once the array is too big for the minor heap. *)
type 'a vec = { mutable items : 'a array; mutable len : int; filler : 'a }

let vec filler = { items = Array.make 64 filler; len = 0; filler }

let push v x =
  if v.len = Array.length v.items then begin
    let bigger = Array.make (2 * v.len) v.filler in
    Array.blit v.items 0 bigger 0 v.len;
    v.items <- bigger
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

type builder = {
  b_nodes : node vec;
  b_links : link vec;
  b_routes : route vec;
}

let builder () =
  { b_nodes = vec { name = ""; kind = Host 0; pod = 0 };
    b_links = vec { src = 0; dst = 0; rate = 0; delay = 0; qdisc = None };
    b_routes = vec { at = 0; lo = 0; hi = 0; via = 0; shared = false } }

let add_node b name kind pod = push b.b_nodes { name; kind; pod }

let add_link b src dst ~rate ~delay qdisc =
  push b.b_links { src; dst; rate; delay; qdisc }

let add_route b at ~lo ~hi ~shared via =
  ignore (push b.b_routes { at; lo; hi; via; shared })

let finish b =
  let contents v = Array.sub v.items 0 v.len in
  { nodes = contents b.b_nodes;
    links = contents b.b_links;
    routes = contents b.b_routes }

(* [n] switch nodes named by [name i], salted from ordinal [first + i]
   (or unsalted when [salted] is false). *)
let switches b n ~name ~salted ~first ~forward ~pod =
  Array.init n (fun i ->
      let salt = if salted then salt (first + i) else 0 in
      add_node b (name i) (Switch { salt; forward }) (pod i))

(* Host [a] gets address [a], an uplink to [edge a] and a downlink
   carrying [qdisc], routed at the edge per address. *)
let attach_hosts b hosts ~edge ~rate ~delay ~qdisc =
  Array.iteri
    (fun a h ->
      let sw = edge a in
      ignore (add_link b h sw ~rate ~delay None);
      let down = add_link b sw h ~rate ~delay qdisc in
      add_route b sw ~lo:a ~hi:a ~shared:false down)
    hosts

(* One tier of the Clos: every [lower.(i)] meshes with each switch of
   [upper i], uplink (carrying [qdisc]) then downlink.  The upper
   switch routes the block [block i] of addresses below [lower.(i)]
   down; the lower switch routes the rest of [0..top] up, as the two
   intervals around the block — shared interval entries, or one entry
   per address unless [shared]. *)
let mesh b ~shared ~lower ~upper ~block ~top ~rate ~delay ~qdisc =
  Array.iteri
    (fun i lo_sw ->
      let lo, hi = block i in
      Array.iter
        (fun up_sw ->
          let up = add_link b lo_sw up_sw ~rate ~delay qdisc in
          let down = add_link b up_sw lo_sw ~rate ~delay None in
          add_route b up_sw ~lo ~hi ~shared down;
          if lo > 0 then add_route b lo_sw ~lo:0 ~hi:(lo - 1) ~shared up;
          if hi < top then add_route b lo_sw ~lo:(hi + 1) ~hi:top ~shared up)
        (upper i))
    lower

let leaf_spine ~leaves ~spines ~hosts_per_leaf ~host_rate ~fabric_rate ~delay
    ?uplink_qdisc () =
  let b = builder () in
  let leaf =
    switches b leaves ~salted:false ~first:0 ~forward:Ecmp
      ~name:(Printf.sprintf "leaf%d") ~pod:Fun.id
  in
  let spine =
    switches b spines ~salted:false ~first:0 ~forward:Static
      ~name:(Printf.sprintf "spine%d") ~pod:(fun _ -> -1)
  in
  let nhosts = leaves * hosts_per_leaf in
  let hosts =
    Array.init nhosts (fun a ->
        let l = a / hosts_per_leaf in
        add_node b
          (Printf.sprintf "h%d_%d" l (a mod hosts_per_leaf))
          (Host a) l)
  in
  attach_hosts b hosts ~rate:host_rate ~delay ~qdisc:None
    ~edge:(fun a -> leaf.(a / hosts_per_leaf));
  mesh b ~shared:false ~lower:leaf ~top:(nhosts - 1) ~rate:fabric_rate ~delay
    ~qdisc:uplink_qdisc
    ~upper:(fun _ -> spine)
    ~block:(fun l -> (l * hosts_per_leaf, ((l + 1) * hosts_per_leaf) - 1));
  finish b

let fat_tree ~k ~host_rate ~fabric_rate ~delay ?uplink_qdisc ?host_qdisc () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fabric.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let per_pod = half * half in
  let nedges = k * half and ncores = half * half in
  let nhosts = k * per_pod in
  let b = builder () in
  let tier n ~first prefix =
    switches b n ~salted:true ~first ~forward:Ecmp ~pod:(fun i -> i / half)
      ~name:(fun i -> Printf.sprintf "%s%d_%d" prefix (i / half) (i mod half))
  in
  let edge = tier nedges ~first:0 "edge" in
  let agg = tier nedges ~first:nedges "agg" in
  let core =
    switches b ncores ~salted:true ~first:(2 * nedges) ~forward:Ecmp
      ~name:(Printf.sprintf "core%d") ~pod:(fun _ -> -1)
  in
  let hosts =
    Array.init nhosts (fun a ->
        let pod = a / per_pod and rem = a mod per_pod in
        add_node b
          (Printf.sprintf "h%d_%d_%d" pod (rem / half) (rem mod half))
          (Host a) pod)
  in
  attach_hosts b hosts ~rate:host_rate ~delay ~qdisc:host_qdisc
    ~edge:(fun a -> edge.(a / half));
  let top = nhosts - 1 in
  mesh b ~shared:true ~lower:edge ~top ~rate:fabric_rate ~delay
    ~qdisc:uplink_qdisc
    ~upper:(fun e -> Array.sub agg (e / half * half) half)
    ~block:(fun e -> (e * half, (e * half) + half - 1));
  mesh b ~shared:true ~lower:agg ~top ~rate:fabric_rate ~delay
    ~qdisc:uplink_qdisc
    ~upper:(fun a -> Array.sub core (a mod half * half) half)
    ~block:(fun a -> (a / half * per_pod, ((a / half) + 1) * per_pod - 1));
  finish b

let multi_leaf_spine ~pods ~leaves ~spines ~supers ~hosts_per_leaf ~host_rate
    ~fabric_rate ~delay ?uplink_qdisc ?host_qdisc () =
  if pods < 1 || leaves < 1 || spines < 1 || hosts_per_leaf < 1 then
    invalid_arg "Fabric.multi_leaf_spine: all tiers must be positive";
  if pods > 1 && supers < 1 then
    invalid_arg "Fabric.multi_leaf_spine: multi-pod needs super-spines";
  let nleaves = pods * leaves and nspines = pods * spines in
  let per_pod = leaves * hosts_per_leaf in
  let nhosts = pods * per_pod in
  let b = builder () in
  let tier n ~per ~first prefix =
    switches b n ~salted:true ~first ~forward:Ecmp ~pod:(fun i -> i / per)
      ~name:(fun i -> Printf.sprintf "%s%d_%d" prefix (i / per) (i mod per))
  in
  let leaf = tier nleaves ~per:leaves ~first:0 "leaf" in
  let spine = tier nspines ~per:spines ~first:nleaves "spine" in
  let super =
    switches b supers ~salted:true ~first:(nleaves + nspines) ~forward:Ecmp
      ~name:(Printf.sprintf "super%d") ~pod:(fun _ -> -1)
  in
  let hosts =
    Array.init nhosts (fun a ->
        let pod = a / per_pod and rem = a mod per_pod in
        add_node b
          (Printf.sprintf "h%d_%d_%d" pod (rem / hosts_per_leaf)
             (rem mod hosts_per_leaf))
          (Host a) pod)
  in
  attach_hosts b hosts ~rate:host_rate ~delay ~qdisc:host_qdisc
    ~edge:(fun a -> leaf.(a / hosts_per_leaf));
  let top = nhosts - 1 in
  mesh b ~shared:true ~lower:leaf ~top ~rate:fabric_rate ~delay
    ~qdisc:uplink_qdisc
    ~upper:(fun l -> Array.sub spine (l / leaves * spines) spines)
    ~block:(fun l -> (l * hosts_per_leaf, ((l + 1) * hosts_per_leaf) - 1));
  if pods > 1 then
    mesh b ~shared:true ~lower:spine ~top ~rate:fabric_rate ~delay
      ~qdisc:uplink_qdisc
      ~upper:(fun _ -> super)
      ~block:(fun s -> (s / spines * per_pod, ((s / spines) + 1) * per_pod - 1));
  finish b

(* ------------------------------- lookups -------------------------------- *)

let find_index p a =
  let rec go i =
    if i = Array.length a then raise Not_found
    else if p a.(i) then i
    else go (i + 1)
  in
  go 0

let node_index d name = find_index (fun n -> String.equal n.name name) d.nodes

let link_index d ~src ~dst =
  find_index (fun (l : link) -> l.src = src && l.dst = dst) d.links

let by_pod d =
  let pods = Array.fold_left (fun m n -> max m (n.pod + 1)) 1 d.nodes in
  let shared = ref 0 in
  let place = Array.make (Array.length d.nodes) 0 in
  Array.iteri
    (fun i n ->
      if n.pod >= 0 then place.(i) <- n.pod
      else begin
        place.(i) <- !shared mod pods;
        incr shared
      end)
    d.nodes;
  place

(* ----------------------------- instantiators ---------------------------- *)

type net = {
  hosts : Node.t array;
  switches : Switch.t array;
  tables : Routing.t array;
  links : Link.t array;
  slot : int array;
}

type device = D_host of Node.t | D_switch of Switch.t

(* [Array.init n f] (in index order) without the minor collection that
   [Array.make] forces when an array too big for the minor heap starts
   from a young value: chunks of at most 256 elements stay in the
   minor heap and [Array.concat] copies them into the major heap.  A
   forced collection mid-build promotes the half-built fabric early;
   on a k=8 fat-tree that cost a fifth of the build and slowed the
   transport attach that follows. *)
let init_in_chunks n f =
  let chunk = 256 in
  Array.concat
    (Array.to_list
       (Array.init ((n + chunk - 1) / chunk) (fun c ->
            Array.init (min chunk (n - (c * chunk))) (fun j ->
                f ((c * chunk) + j)))))

(* The one build walk.  [sim_of i] is node [i]'s simulator and
   [make_link i l ~name qdisc deliver] creates description link [i]
   delivering into [deliver]. *)
let build d ~sim_of ~make_link =
  let slot = Array.make (Array.length d.nodes) 0 in
  let hosts = ref [] and switches = ref [] and tables = ref [] in
  let nhosts = ref 0 and nswitches = ref 0 in
  let devices =
    init_in_chunks (Array.length d.nodes) (fun i ->
        let n = d.nodes.(i) in
        match n.kind with
        | Host addr ->
          let h = Node.create (sim_of i) ~name:n.name ~addr in
          hosts := h :: !hosts;
          slot.(i) <- !nhosts;
          incr nhosts;
          D_host h
        | Switch { salt; forward } ->
          let sw = Switch.create (sim_of i) ~name:n.name () in
          let tbl = Routing.create ~salt () in
          Switch.set_forward sw
            (match forward with
            | Ecmp -> Routing.ecmp tbl
            | Static -> Routing.static tbl);
          switches := sw :: !switches;
          tables := tbl :: !tables;
          slot.(i) <- !nswitches;
          incr nswitches;
          D_switch sw)
  in
  let ports = Array.make (Array.length d.links) (-1) in
  let links =
    init_in_chunks (Array.length d.links) (fun i ->
        let l = d.links.(i) in
        let name = d.nodes.(l.src).name ^ "->" ^ d.nodes.(l.dst).name in
        let qdisc = match l.qdisc with Some f -> Some (f ()) | None -> None in
        let deliver =
          match devices.(l.dst) with
          | D_host h -> Node.receive h
          | D_switch sw -> Switch.receive sw
        in
        let link = make_link i l ~name qdisc deliver in
        (match devices.(l.src) with
        | D_host h -> Node.attach h link
        | D_switch sw -> ports.(i) <- Switch.add_port sw link);
        link)
  in
  let tables = Array.of_list (List.rev !tables) in
  Array.iter
    (fun r ->
      let tbl = tables.(slot.(r.at)) and port = ports.(r.via) in
      if r.shared then Routing.add_range tbl ~lo:r.lo ~hi:r.hi port
      else
        for a = r.lo to r.hi do
          Routing.add tbl a port
        done)
    d.routes;
  { hosts = Array.of_list (List.rev !hosts);
    switches = Array.of_list (List.rev !switches);
    tables;
    links;
    slot }

let into_sim sim d =
  build d
    ~sim_of:(fun _ -> sim)
    ~make_link:(fun _ (l : link) ~name qdisc deliver ->
      let link = Link.create sim ~name ~rate:l.rate ~delay:l.delay ?qdisc () in
      Link.set_dst link deliver;
      link)

type parts = {
  world : Partition.t;
  net : net;
  host_part : int array;
  switch_part : int array;
  link_part : int array;
  cut_delay : Engine.Time.t array;
}

let into_partitions ~seed ~place d =
  if Array.length place <> Array.length d.nodes then
    invalid_arg "Fabric.into_partitions: place must cover every node";
  let nparts = 1 + Array.fold_left max 0 place in
  let world = Partition.create ~seed ~nparts in
  let cut_delay = Array.make (Array.length d.links) Engine.Time.zero in
  let net =
    build d
      ~sim_of:(fun i -> Partition.sim world place.(i))
      ~make_link:(fun i (l : link) ~name qdisc deliver ->
        let src = place.(l.src) and dst = place.(l.dst) in
        let cut = src <> dst in
        if cut then cut_delay.(i) <- l.delay;
        let link =
          Link.create (Partition.sim world src) ~name ~rate:l.rate
            ~delay:(l.delay - cut_delay.(i)) ?qdisc ()
        in
        Link.set_dst link
          (if cut then Partition.conduit world ~src ~dst ~delay:l.delay deliver
           else deliver);
        link)
  in
  let host_part = Array.make (Array.length net.hosts) 0 in
  let switch_part = Array.make (Array.length net.switches) 0 in
  Array.iteri
    (fun i n ->
      let part = match n.kind with Host _ -> host_part | Switch _ -> switch_part in
      part.(net.slot.(i)) <- place.(i))
    d.nodes;
  { world;
    net;
    host_part;
    switch_part;
    link_part = Array.map (fun (l : link) -> place.(l.src)) d.links;
    cut_delay }
