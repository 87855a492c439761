(** One scheme-run: build a fat-tree, attach the scheme, replay the
    workload's inputs through the public simulator API, and collect
    the counters and checks the report is made of.

    Each timed phase (setup, simulation) starts on a fully collected
    heap, so repetitions in one process time the same work. *)

type scheme = Raw | Tcp | Dctcp | Mtp

val scheme_name : scheme -> string

val schemes : Inputs.t -> scheme list
(** [fabric_perm] runs raw packets only; [rpc_websearch] runs TCP, DCTCP
    and MTP. *)

type outcome = {
  scheme : scheme;
  topology_ns : int;  (** [Sim.create] + [Topology.fat_tree]. *)
  attach_ns : int;  (** Hosts, transports, stamping, traffic sources. *)
  wall_ns : int;  (** The simulation phase. *)
  events : int;
  hops : int;  (** Σ [Link.delivered_pkts] over every link. *)
  sends : int;  (** Σ [Link.sends]. *)
  drops : int;  (** Σ qdisc drops. *)
  marks : int;
  trims : int;
  switch_rx : int;  (** Σ [Switch.received]. *)
  pool_fresh : int;
  pool_reused : int;
  host_rx : int;  (** Deliveries on edge->host links. *)
  messages : int;
      (** Messages delivered; raw packets delivered on [fabric_perm]. *)
  retransmits : int;
  rx_bytes : int;  (** Transport payload bytes delivered. *)
  uplink_bytes : int;  (** Bytes serialized on host uplinks. *)
  minor_words : float;  (** Simulation phase only. *)
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  summary_ns : int;  (** [Stats.Summary] percentile queries. *)
  outcome_line : string;  (** The simulated outcome, human-readable. *)
  digest : string;  (** Hex digest of [outcome_line]. *)
  failures : string list;
      (** Ledger, workload and (when traced) trace-accounting check
          failures; empty when the run is correct. *)
}

val setup_ns : seed:int -> Inputs.t -> scheme -> int
(** The set-up phase of {!run} alone, on a fully collected heap:
    [topology_ns + attach_ns] of a scheme-run that is never started. *)

val run : ?trace:Trace.t -> seed:int -> Inputs.t -> scheme -> outcome
(** One scheme-run.  With [trace] the engine is stepped by
    {!Trace.drive} and hosts and switches are instrumented; the
    simulated outcome must not change. *)
