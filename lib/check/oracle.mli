(** Invariant oracles: event-order and transport-state checks cheap
    enough to run inside every fuzz case.  Conservation lives in
    {!Ledger}. *)

(** {1 Event order} *)

type monotone
(** Watches a stream of timestamps for regressions — wired as a tap on
    every link/switch, it asserts that no component observes a time
    earlier than one already seen (the engine pops strictly by
    [(time, seq)]). *)

val monotone : unit -> monotone

val observe : monotone -> Engine.Time.t -> unit

val tap : monotone -> Engine.Time.t -> Netsim.Packet.t -> unit
(** [observe] shaped for [Link.add_tap] / [Switch.add_tap]. *)

val monotone_result : monotone -> (unit, string) result
(** [Error] describing the first regression, if any was seen. *)

(** {1 Link timing} *)

type spacing
(** Watches one link's deliveries.  The wire carries one packet at a
    time, so consecutive deliveries on a link are spaced at least the
    later packet's serialisation time apart, whatever the queueing,
    faults or same-instant ordering around them. *)

val spacing : Netsim.Link.t -> spacing

val spacing_tap : spacing -> Engine.Time.t -> Netsim.Packet.t -> unit
(** Shaped for [Link.add_tap] on the link [spacing] was made for. *)

val spacing_result : spacing -> (unit, string) result
(** [Error] describing the first too-close pair of deliveries, if
    any. *)

(** {1 Transport state} *)

val completions_once : int array -> (unit, string) result
(** Given per-message completion counts, flags any message whose
    completion callback fired more than once. *)

val pathlets_consistent : Mtp.Pathlet.t -> (unit, string) result
(** The pathlet exclusion set is a subset of the known paths, every
    excluded path is suspect, and windows / in-flight / strike
    counters are non-negative. *)

val endpoint_ok : Mtp.Endpoint.t -> (unit, string) result
(** All endpoint counters non-negative plus {!pathlets_consistent} on
    its pathlet table. *)
