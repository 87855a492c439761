(** A constant kept for the repository benchmark.

    There is one link datapath (see {!Link} and DESIGN.md "Link
    datapath").  [perfbench/host_info.ml] records this value in its
    host record, and the benchmark's files may not change, so the
    function stays until the next change to the benchmark drops it. *)

val enabled : unit -> bool
(** Whether links use the batched datapath: always [false]. *)
