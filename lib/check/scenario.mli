(** Build and drive one fuzz scenario from a {!Spec}.

    A built scenario carries the full oracle set pre-attached: a
    conservation {!Ledger} over every link and switch, a monotone-time
    watcher tapped on every device, per-message completion counters,
    and (for MTP) the endpoints for transport-state checks.

    [digest] renders everything observable — an event trace of
    deliveries, completions and periodic queue samples, plus final
    per-device/per-stack counters — as one deterministic string; the
    differential runner compares digests across paired configurations
    byte-for-byte. *)

type fault_mode =
  | As_spec  (** Apply the spec's fault list. *)
  | Noop
      (** Install a fault plan that provably never fires inside the
          run (a down-event after the run ends, a zero-loss
          Gilbert-Elliott wrapper) — output must equal a faultless
          run. *)

type t

val build : ?fault:fault_mode -> Spec.t -> t
(** Construct the topology, stacks, workload, faults and oracles.
    Defaults to [As_spec]. *)

val run : t -> unit
(** Drive the simulation to the end of the spec's duration. *)

val digest : t -> string
(** The rendered observable output (call after {!run}). *)

val oracle_failures : t -> string list
(** All oracle violations: conservation, event order, completion
    uniqueness, MTP pathlet/window consistency.  Empty = clean. *)

(** {1 Domain mode}

    The same scenario's fabric description built by
    [Netsim.Fabric.into_partitions] at its canonical placement (one
    partition per leaf, or per pod for fat-trees) and driven by the
    conservative epoch runner.  Digests are
    canonical per-partition renderings: compare domain-mode runs
    against each other across [jobs] values — not against {!digest},
    whose global trace interleaving depends on single-heap tie
    breaking that a partitioned world deliberately does not
    reproduce. *)

val domains_applicable : Spec.t -> bool
(** Whether the spec's topology is a fabric description whose
    canonical placement spans at least two partitions (leaf-spine
    with at least two leaves, or any valid fat-tree). *)

val run_domains : ?jobs:int -> Spec.t -> (string, string) result
(** Build the partitioned equivalent, run it for the spec's duration
    on [jobs] workers, and return the domain-mode digest — or [Error]
    with the oracle violations.  Byte-identical output for any [jobs]
    is the contract the fuzz pairing enforces.
    @raise Invalid_argument when not {!domains_applicable}. *)

(**/**)

val links : t -> Netsim.Link.t array
val sim : t -> Engine.Sim.t
val duration : t -> Engine.Time.t
(** Internal surface for the mutation test's bug injector. *)
