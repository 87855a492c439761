(** Host (wall) time, as opposed to the simulator's virtual time. *)

val now_ns : unit -> int
(** Monotonic host time in nanoseconds; allocation-free. *)

val to_s : int -> float
(** Nanoseconds to seconds. *)
