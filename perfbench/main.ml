(* The repository benchmark: one workload, one seed, one process on
   one domain.  See README.md for the workloads, the metrics and what
   each should move. *)

open Perfbench

let usage =
  "main.exe --workload (fabric_perm|rpc_websearch) --seed N \
   --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " measuring budget in seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer trace") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload Inputs.workloads))
     || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let t0 = Clock.now_ns () in
  let inputs = Inputs.generate ~workload:!workload ~seed:!seed () in
  Printf.printf "workload %s seed %d inputs %s (generated in %.3f s)\n%!"
    !workload !seed (Inputs.fingerprint inputs)
    (Clock.to_s (Clock.now_ns () - t0));
  let seconds = float_of_int !seconds in
  let r =
    if !trace = 0 then Report.timed ~seconds ~seed:!seed inputs
    else Report.traced ~seconds ~seed:!seed inputs
  in
  (* Spawning the probe's second domain leaves the runtime in a state
     whose GC counters no longer repeat exactly, so it runs last. *)
  List.iter print_endline (Host_info.lines (Host_info.probe ()));
  List.iter print_endline r.Report.lines;
  List.iter
    (fun m ->
      let v = m.Report.value in
      Printf.printf "%s %s %s %s\n" !workload m.Report.name
        (if Float.is_integer v then Printf.sprintf "%.0f" v
         else Printf.sprintf "%.6g" v)
        m.Report.unit_)
    r.Report.metrics;
  print_endline (Report.json r);
  exit (if r.Report.correct then 0 else 1)
