(** Fabric descriptions: a datacenter fabric as plain data, built into
    one simulation ({!into_sim}) or into a partitioned world
    ({!into_partitions}).

    A description lists nodes (hosts with addresses, switches with an
    ECMP salt and a forwarding mode), directed links and per-switch
    routes over address intervals.  The generators emit nodes, links
    and routes in one fixed order, and both instantiators build them
    in that order, so the two builds of one description agree on
    names, addresses, port numbers, route registration order, salts
    and qdisc-factory call order (see DESIGN.md "Fabric
    descriptions"). *)

type forward =
  | Ecmp  (** {!Routing.ecmp} over the switch's table. *)
  | Static  (** {!Routing.static}: the first registered port. *)

type kind =
  | Host of Packet.addr
  | Switch of { salt : int; forward : forward }
      (** [salt] seeds the switch's {!Routing.create} table. *)

type node = {
  name : string;
  kind : kind;
  pod : int;
      (** The leaf or pod block the node belongs to, or [-1] for a tier
          shared by every block (spines of a two-tier Clos, fat-tree
          cores, super-spines). *)
}

type link = {
  src : int;  (** Node index of the transmitting end. *)
  dst : int;
  rate : Engine.Time.rate;
  delay : Engine.Time.t;
  qdisc : (unit -> Qdisc.t) option;
      (** Called once per link, in link order, when the link is built;
          [None] is the default queue of {!Link.create}. *)
}

type route = {
  at : int;  (** Switch node index. *)
  lo : Packet.addr;
  hi : Packet.addr;
  via : int;  (** Index of a link leaving [at]. *)
  shared : bool;
      (** [true]: one {!Routing.add_range} entry for [lo..hi];
          [false]: one {!Routing.add} per address of [lo..hi]. *)
}

type t = { nodes : node array; links : link array; routes : route array }
(** Links are named ["<src name>-><dst name>"] when built.  A host's
    first outgoing link is its uplink; a switch's outgoing links are
    its ports, numbered in link order. *)

(** {1 Generators}

    Hosts get dense addresses from 0 in node order.  Every link is a
    duplex pair, the upward or host-side direction first; a host's
    downlink carries [host_qdisc] and every switch-to-switch upward
    link carries [uplink_qdisc]. *)

val salt : int -> int
(** Deterministic nonzero ECMP salt for fabric switch ordinal [i]
    (see {!Routing.create}). *)

val leaf_spine :
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  unit ->
  t
(** A two-tier Clos: every leaf connects to every spine at
    [fabric_rate].  Nodes: [leaf<l>], [spine<s>], then hosts
    [h<l>_<i>].  Leaves are unsalted {!Ecmp} with one per-address
    route per remote host and spine uplink; spines are {!Static}. *)

val fat_tree :
  k:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  ?host_qdisc:(unit -> Qdisc.t) ->
  unit ->
  t
(** Canonical k-ary fat-tree (k even): k pods of k/2 edge + k/2 agg
    switches, (k/2)² cores, k³/4 hosts.  Nodes: [edge<p>_<e>],
    [agg<p>_<a>], [core<c>], then hosts [h<p>_<e>_<i>] (host [i] under
    edge [i / (k/2)]).  Every tier forwards with salted {!Ecmp} over
    address intervals: remote destinations at an edge are two ranges
    sharing the k/2 agg uplinks, aggs own their pod's edge blocks
    downward and split their k/2 core uplinks upward (agg [a] of every
    pod meshes with cores [a·k/2 .. a·k/2 + k/2 - 1]), cores own
    whole pods.  Table state per switch is O(k), not O(hosts).
    @raise Invalid_argument unless [k] is even and [>= 2]. *)

val multi_leaf_spine :
  pods:int ->
  leaves:int ->
  spines:int ->
  supers:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  ?host_qdisc:(unit -> Qdisc.t) ->
  unit ->
  t
(** Generalized multi-tier Clos: [pods] two-tier leaf-spine blocks
    whose spines all mesh with [supers] super-spines.  Nodes:
    [leaf<p>_<l>], [spine<p>_<s>], [super<u>], then hosts
    [h<p>_<l>_<i>].  Like {!fat_tree}, every tier forwards with salted
    {!Ecmp} over intervals.  [pods = 1] with [supers = 0] is a
    two-tier leaf-spine on interval routes.
    @raise Invalid_argument on a non-positive tier, or several pods
    without super-spines. *)

(** {1 Lookups} *)

val node_index : t -> string -> int
(** @raise Not_found if no node has that name. *)

val link_index : t -> src:int -> dst:int -> int
(** The link from node [src] to node [dst].
    @raise Not_found if there is none. *)

val by_pod : t -> int array
(** The canonical placement: each node in partition [pod], and the
    [i]-th shared-tier node in partition [i mod pods] (spine [s] of a
    leaf-spine in partition [s mod leaves], fat-tree core [c] in
    [c mod k]). *)

(** {1 Instantiators} *)

type net = {
  hosts : Node.t array;  (** Host nodes in node order (= address order). *)
  switches : Switch.t array;  (** Switch nodes in node order. *)
  tables : Routing.t array;  (** [tables.(i)] forwards [switches.(i)]. *)
  links : Link.t array;  (** In description order. *)
  slot : int array;
      (** Node index -> its index in [hosts] or [switches]. *)
}

val into_sim : Engine.Sim.t -> t -> net
(** Build the whole fabric in one simulation. *)

type parts = {
  world : Partition.t;
  net : net;
  host_part : int array;  (** Partition of each of [net.hosts]. *)
  switch_part : int array;  (** Partition of each of [net.switches]. *)
  link_part : int array;
      (** Partition of each of [net.links]: that of its source node. *)
  cut_delay : Engine.Time.t array;
      (** Per link, the propagation its conduit pays across the cut; 0
          for a link inside one partition (which keeps its own
          delay). *)
}

val into_partitions : seed:int -> place:int array -> t -> parts
(** Build the fabric into a world of [1 + max place] partitions,
    node [i] in partition [place.(i)] (per-partition sim seeds derive
    from [seed]).  A link whose ends share a partition is an ordinary
    link there; a cut link is a conduit: a zero-delay link in the
    source partition whose packets reach the destination after the
    link's delay.  Conduits are created in link order.
    @raise Invalid_argument if [place] does not cover every node, or
    a cut link has no positive delay. *)
