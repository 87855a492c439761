(** The host a result was measured on, recorded next to the results
    so numbers from different hosts are not compared blindly. *)

type t = {
  nproc : int;  (** [Domain.recommended_domain_count]. *)
  parallel_capacity : float;
      (** Measured: 2 x (wall of one spinning domain) / (wall of two
          spinning the same work each); about 1 on a host whose two
          vCPUs share one core, about 2 with two free cores. *)
  ocaml_version : string;
  batched_datapath : bool;  (** [Netsim.Datapath.enabled], read only. *)
}

val probe : unit -> t
(** Takes about a tenth of a second.  Run it after every timed phase:
    once a second domain has been spawned, the process's GC counters
    no longer repeat exactly from run to run. *)

val lines : t -> string list
