(** Seeded workload inputs.

    Everything random about a workload is drawn here, from the
    command's seed, before any timed phase starts; the simulations in
    {!Scenario} only replay these arrays.  The amount of work is fixed
    by the workload, not by the seed (packet counts per source and
    the byte volume of the RPC mix), so runs on different seeds
    time comparable work. *)

type fabric = {
  f_k : int;  (** Fat-tree arity. *)
  f_perm : int array;  (** Source [i] streams to host [f_perm.(i)]. *)
  f_hot : int array;
      (** Hotspot destination of source [i], or [-1] for sources that
          only follow the permutation. *)
  f_pkts : Bytes.t array;
      (** Per host, one byte per packet it sends (empty for hosts that
          only sink): the size class ({!packet_sizes} index) in the low
          two bits, bit 2 set when the packet goes to the source's
          hotspot. *)
  f_start : int array;  (** First send of source [i], in ns. *)
  f_hash : int array;  (** Per-source flow-hash base. *)
}

val host_gbps : int
(** Line rate of every link, in Gb/s; the offered loads below are
    fractions of it. *)

val packet_sizes : int array
(** Wire sizes of the [fabric_perm] mix, smallest first (64 B
    included). *)

type rpc = {
  r_k : int;
  r_at : int array;  (** Arrival instants (ns), ascending. *)
  r_src : int array;  (** Sending host index per message. *)
  r_dst : int array;  (** Receiving host index per message. *)
  r_size : int array;  (** Message bytes. *)
}

type t = Fabric of fabric | Rpc of rpc

val workloads : string list
(** [fabric_perm], [rpc_websearch]. *)

val generate : ?scale:float -> workload:string -> seed:int -> unit -> t
(** The inputs of a named workload.  [scale] (default 1) multiplies
    the per-run work (packets per source, messages); the test
    suite uses a small scale.
    @raise Invalid_argument on an unknown workload name. *)

val fingerprint : t -> string
(** Hex digest of the inputs, to show that two seeds differ. *)
