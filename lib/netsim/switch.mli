(** Output-queued switches with programmable forwarding and ingress
    hooks.

    The forwarding function maps a packet to an {!action}.  Ingress
    hooks run before forwarding and may mutate, absorb, or answer
    packets — this is how in-network offloads (caches, load balancers,
    aggregators) and MTP feedback logic attach to the data plane. *)

type t

type action =
  | Forward of int  (** Egress on the given port. *)
  | Drop  (** Discard (counted). *)
  | Consume  (** Absorbed by device logic (offloads). *)

type verdict =
  | Continue  (** Proceed to the next hook / forwarding. *)
  | Absorb  (** Packet fully handled by the hook. *)

val create : Engine.Sim.t -> name:string -> ?pool:Packet.pool -> unit -> t
(** With [pool], packets the forwarding function [Drop]s are released
    back to it — only safe when no other component retains references
    to in-flight packets. *)

val name : t -> string
val sim : t -> Engine.Sim.t

val pool : t -> Packet.pool option
(** The pool dropped packets are released to, if any. *)

val add_port : t -> Link.t -> int
(** Register an egress link; returns its port number. *)

val port : t -> int -> Link.t
val port_count : t -> int

val set_forward : t -> (Packet.t -> action) -> unit

val add_ingress_hook : t -> (Packet.t -> verdict) -> unit
(** Hooks run in registration order. *)

val add_tap : t -> (Engine.Time.t -> Packet.t -> unit) -> unit
(** Observe every packet entering the switch (before hooks and
    forwarding); purely passive. *)

val receive : t -> Packet.t -> unit
(** Entry point wired as the destination of incoming links. *)

val inject : t -> port:int -> Packet.t -> unit
(** Emit a device-generated packet (offload responses, NACKs). *)

val forwarded : t -> int
(** Packets sent out a port, including device-originated {!inject}s. *)

val dropped : t -> int
val consumed : t -> int

val received : t -> int
(** Packets that entered via {!receive}. *)

val injected : t -> int
(** Device-originated packets emitted via {!inject} (also counted in
    {!forwarded}).  The conservation invariant the [Check.Ledger]
    oracle asserts: [received + injected = forwarded + dropped +
    consumed]. *)
