type t = {
  nproc : int;
  parallel_capacity : float;
  ocaml_version : string;
  batched_datapath : bool;
}

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x lxor (i * 0x9E3779B1)
  done;
  Sys.opaque_identity !x

(* Best of three for each width, so one preemption does not decide
   the ratio. *)
let best f =
  let b = ref max_int in
  for _ = 1 to 3 do
    let t0 = Clock.now_ns () in
    f ();
    b := min !b (Clock.now_ns () - t0)
  done;
  !b

let probe () =
  let n = 10_000_000 in
  let one = best (fun () -> ignore (spin n)) in
  let two =
    best (fun () ->
        let d = Domain.spawn (fun () -> spin n) in
        ignore (spin n);
        ignore (Domain.join d))
  in
  { nproc = Domain.recommended_domain_count ();
    parallel_capacity = 2.0 *. float_of_int one /. float_of_int (max 1 two);
    ocaml_version = Sys.ocaml_version;
    batched_datapath = Netsim.Datapath.enabled () }

let lines t =
  [ Printf.sprintf "host nproc %d" t.nproc;
    Printf.sprintf "host parallel_capacity %.2f cores (1 vs 2 spinning domains)"
      t.parallel_capacity;
    Printf.sprintf "host ocaml %s" t.ocaml_version;
    Printf.sprintf "host batched_datapath %b" t.batched_datapath ]
