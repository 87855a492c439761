(* Kept for the benchmark's host record; see the interface. *)
let enabled () = false
