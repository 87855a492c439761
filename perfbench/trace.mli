(** Outside-in per-layer trace of one scheme-run.

    Everything here times calls into public simulator functions from
    the benchmark's side; nothing inside [lib/] is instrumented.  The
    traced run drives the engine itself ({!drive}: [Sim.next_time] /
    [Sim.step] up to the horizon) and classifies every step by what
    ran inside it:
    - host-rx: some host's wrapped receive handler ({!wrap_hosts});
    - switch-rx: otherwise, some switch's passive tap fired
      ({!tap_switches}) — routing, switch logic and the qdisc;
    - other: neither — link transmit completions, transport timers,
      workload arrivals.

    The bench's own [send_message] calls and [on_message] callbacks are
    child spans ({!send}, {!span_callback}). *)

type t = {
  mutable step_ns : int;  (** All step time. *)
  mutable pops : int;  (** [Sim.step] calls, cancelled slots included. *)
  mutable pending_max : int;  (** Peak [Sim.pending] after a step. *)
  mutable host_step_ns : int;
  mutable switch_step_ns : int;
  mutable other_step_ns : int;
  mutable rx_ns : int;  (** Wrapped host handlers, inclusive. *)
  mutable rx_hits : int;
  mutable rx_outside : int;  (** Handler spans not inside a step. *)
  mutable send_ns : int;
  mutable callback_ns : int;
  mutable switch_taps : int;
  mutable in_step : bool;
  mutable step_host : bool;
  mutable step_switch : bool;
}

val create : unit -> t

val wrap_hosts : t -> Netsim.Node.t array -> unit
(** Wrap every host's installed handler ([Node.set_handler]); call
    after all transports are attached. *)

val tap_switches : t -> Netsim.Switch.t array -> unit

val drive : t -> Engine.Sim.t -> until:Engine.Time.t -> unit
(** Same event order as [Sim.run ~until], one timed step at a time. *)

val send :
  t option ->
  Netsim.Transport_intf.packed ->
  dst:Netsim.Packet.addr ->
  dst_port:int ->
  size:int ->
  unit
(** [Transport_intf.send_message], timed as a child span when
    tracing. *)

val span_callback : t option -> ('a -> unit) -> 'a -> unit
(** Run a completion callback, timed as a child span when tracing. *)

val failures :
  t -> switch_received:int -> host_deliveries:int -> string list
(** The accounting check: per-class step times sum to the step total,
    host spans nest inside host-class steps, switch-tap hits equal
    [Switch.received], and wrapped-handler hits equal deliveries on
    the edge->host links. *)
