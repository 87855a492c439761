(* Host time for the benchmark's own spans: the noalloc monotonic
   clock, read as an immediate int of nanoseconds so a span costs two
   calls and an add, never an allocation. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let to_s ns = float_of_int ns *. 1e-9
