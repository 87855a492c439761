(** Topology construction: address allocation, duplex wiring helpers,
    and the prebuilt networks used by the paper's experiments. *)

type t

val create : Engine.Sim.t -> t

val sim : t -> Engine.Sim.t

val host : t -> string -> Node.t
(** Fresh host with a unique address. *)

val switch : t -> string -> Switch.t

(** {1 Wiring} *)

val wire_host_to_switch :
  t ->
  Node.t ->
  Switch.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?up_qdisc:Qdisc.t ->
  ?down_qdisc:Qdisc.t ->
  unit ->
  int
(** Duplex host/switch attachment.  The uplink becomes the host's
    default link; returns the switch port of the {e downlink} (towards
    the host) for routing. *)

val wire_switch_pair :
  t ->
  Switch.t ->
  Switch.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?ab_qdisc:Qdisc.t ->
  ?ba_qdisc:Qdisc.t ->
  unit ->
  int * int * Link.t * Link.t
(** Duplex switch/switch wiring: [(port_at_a_towards_b,
    port_at_b_towards_a, link_ab, link_ba)]. *)

val wire_host_pair :
  t ->
  Node.t ->
  Node.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?ab_qdisc:Qdisc.t ->
  ?ba_qdisc:Qdisc.t ->
  unit ->
  Link.t * Link.t
(** Direct duplex host/host wiring; installs per-destination routes on
    both hosts (so multi-homed hosts keep existing attachments). *)

(** {1 Prebuilt networks} *)

type dumbbell = {
  db_senders : Node.t array;
  db_receivers : Node.t array;
  db_left : Switch.t;
  db_right : Switch.t;
  db_bottleneck : Link.t;  (** left → right direction. *)
}

val dumbbell :
  t ->
  n:int ->
  edge_rate:Engine.Time.rate ->
  bottleneck_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?bottleneck_qdisc:Qdisc.t ->
  unit ->
  dumbbell
(** [n] senders and [n] receivers joined by two switches and one
    bottleneck; destination routing installed on both switches
    (sender [i] talks to receiver [i] and vice versa). *)

type two_path = {
  tp_src : Node.t;
  tp_dst : Node.t;
  tp_ingress : Switch.t;
  tp_egress : Switch.t;
  tp_link_a : Link.t;  (** ingress → egress, path A. *)
  tp_link_b : Link.t;  (** ingress → egress, path B. *)
  tp_port_a : int;  (** at ingress. *)
  tp_port_b : int;
  tp_routes : Routing.t;
      (** Ingress table with both ports registered for [tp_dst]; the
          default forwarding is [Routing.static] (path A) — replace it
          with [ecmp]/[spray]/custom alternation per experiment. *)
}

val two_path :
  t ->
  rate_a:Engine.Time.rate ->
  rate_b:Engine.Time.rate ->
  delay_a:Engine.Time.t ->
  delay_b:Engine.Time.t ->
  edge_rate:Engine.Time.rate ->
  ?qdisc_a:Qdisc.t ->
  ?qdisc_b:Qdisc.t ->
  unit ->
  two_path
(** One sender, one receiver, two parallel unidirectional paths between
    an ingress and an egress switch.  The reverse (ACK) direction uses
    a dedicated high-rate link so data-path experiments are not
    perturbed by ACK queueing. *)

type chain = {
  ch_client : Node.t;
  ch_proxy : Node.t;
  ch_server : Node.t;
  ch_client_to_proxy : Link.t;
  ch_proxy_to_server : Link.t;
}

val proxy_chain :
  t ->
  front_rate:Engine.Time.rate ->
  back_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?front_qdisc:Qdisc.t ->
  ?back_qdisc:Qdisc.t ->
  unit ->
  chain
(** client ↔ proxy at [front_rate], proxy ↔ server at [back_rate] —
    the paper's Fig. 2 rate-mismatch setup. *)

type star = {
  st_clients : Node.t array;
  st_server : Node.t;
  st_switch : Switch.t;
  st_server_port : int;
}

val star :
  t ->
  n:int ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?server_qdisc:Qdisc.t ->
  unit ->
  star
(** [n] clients and one server on a single switch with destination
    routing installed — the incast/offload playground. *)

type fat_tree = {
  ft_k : int;
  ft_hosts : Node.t array;
      (** In address order: host [i] has address [i] and lives in pod
          [i / (k²/4)], edge [(i mod k²/4) / (k/2)]. *)
  ft_edges : Switch.t array;  (** [pod·k/2 + e]. *)
  ft_aggs : Switch.t array;  (** [pod·k/2 + a]. *)
  ft_cores : Switch.t array;  (** [(k/2)²] of them. *)
}

val fat_tree :
  t ->
  k:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  ?host_qdisc:(unit -> Qdisc.t) ->
  unit ->
  fat_tree
(** {!Fabric.fat_tree} built by {!Fabric.into_sim} on a topology with
    no hosts yet, viewed by tier.  Edge host ports come first: host
    [i] is port [i mod k/2] of its edge. *)
