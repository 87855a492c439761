(** Repetitions, checks and metrics of one benchmark run.

    A run repeats the workload's scheme-runs on the same inputs until
    its time budget is spent (at least three times) and reports
    medians.  Every scheme-run counts as attempted; it fails when an
    exception escapes, the packet ledger or a workload check fails, or
    its simulated-outcome digest differs from the first same-seed
    run's. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;  (** No scheme-run failed. *)
  attempted : int;
  failed : int;
  metrics : metric list;
  lines : string list;  (** Human-readable digests and failures. *)
}

val timed : seconds:float -> seed:int -> Inputs.t -> t
(** Untraced repetitions; the end-to-end metrics ([wall_s],
    [setup_s], [hops_per_s], [msgs_per_s], [peak_heap_mb]). *)

val traced : seconds:float -> seed:int -> Inputs.t -> t
(** Pairs of an untraced and a traced repetition; the per-layer
    metrics.  Also fails a scheme-run whose traced digest or layer
    counts differ from the untraced run's, or whose trace accounting
    does not add up. *)

val json : t -> string
(** The one-line result object. *)
