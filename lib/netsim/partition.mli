(** Domain partitioning for conservative parallel simulation of
    {e one} scenario.

    A partitioned world is N single-threaded worlds (private [Sim],
    devices) stitched by {e conduits} — cross-partition unidirectional
    edges whose qdisc and serialization live in the source partition
    and whose propagation delay is paid across the epoch barrier.
    Worlds are built from a fabric description by
    {!Fabric.into_partitions}, which uses {!create} and {!conduit}.
    Driven by [Runner.Epoch.run] with lookahead = the minimum conduit
    delay, the result is byte-identical for any [jobs] value; see
    DESIGN.md "Conservative parallel DES" for the argument.

    Telemetry note: worker domains never emit telemetry
    ([Telemetry.Ctx] guards are main-domain only), so export files
    from a [jobs > 1] run cover only main-domain activity — the CLI
    already refuses [--trace]/[--metrics] with [--jobs > 1]. *)

type t

val create : seed:int -> nparts:int -> t
(** [nparts] empty worlds with per-partition [Sim] seeds derived from
    [seed] via [Engine.Rng.derive]. *)

val conduit :
  t ->
  src:int ->
  dst:int ->
  delay:Engine.Time.t ->
  (Packet.t -> unit) ->
  Packet.t ->
  unit
(** [conduit t ~src ~dst ~delay deliver] is the destination function
    of a zero-delay link serializing in partition [src]: each packet
    it receives is parked with arrival stamp [now + delay] and handed
    to [deliver] in [dst]'s sim at the next epoch barrier.  [delay]
    must be positive — it bounds the epoch lookahead.  Ownership of
    the packet moves to [dst]; the source side keeps no reference. *)

val nparts : t -> int

val sim : t -> int -> Engine.Sim.t
(** Partition [p]'s simulator. *)

val lookahead : t -> Engine.Time.t
(** Minimum conduit delay — the epoch window length.
    @raise Invalid_argument if the world has no conduit. *)

val exchange : t -> unit
(** Drain all conduit FIFOs into their destination sims, in canonical
    order (arrival time, then conduit creation order, then emission
    order).  Called between epochs on the main domain;
    [run] does this automatically. *)

val run : ?jobs:int -> until:Engine.Time.t -> t -> unit
(** Drive the whole world to [until] with [Runner.Epoch.run]:
    lookahead-sized windows, [jobs] workers, canonical exchange at
    every barrier.  [jobs = 1] (default) is the sequential reference
    — byte-identical state to any other [jobs] value. *)
