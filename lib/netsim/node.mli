(** End hosts.

    A host has an address, one uplink (all topologies here are
    edge-attached), and a receive handler that transports install.
    Multiple transports on a host chain handlers: each handler should
    pass unrecognized packets to the previously installed one. *)

type t

val create : Engine.Sim.t -> name:string -> addr:Packet.addr -> t

val addr : t -> Packet.addr
val name : t -> string
val sim : t -> Engine.Sim.t

val attach : t -> Link.t -> unit
(** Set the host's default uplink. *)

val add_route : t -> Packet.addr -> Link.t -> unit
(** Multi-homed hosts (e.g. a proxy between two networks) can pin the
    egress link for a destination; {!send} falls back to the default
    uplink otherwise. *)

val uplink : t -> Link.t
(** @raise Failure if the host is not attached. *)

val link_for : t -> Packet.addr -> Link.t
(** The link {!send} would use for a destination. *)

val send : t -> Packet.t -> unit
(** Transmit on the route for [p.dst], or the default uplink. *)

val receive : t -> Packet.t -> unit
(** Deliver a packet to the host's current handler (dropped with a
    count if none is installed). *)

val set_handler : t -> (Packet.t -> unit) -> unit

val handler : t -> (Packet.t -> unit) option
(** The currently installed handler, for chaining. *)

val dropped : t -> int
(** Packets that arrived with no handler installed. *)
