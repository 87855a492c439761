(* The benchmark's own checks, on reduced inputs: determinism of the
   simulated outcome and of the trace's counts, seed sensitivity of
   the inputs, and the fabric workload's qdisc drop/mark path. *)

open Perfbench

let small = [ ("fabric_perm", 0.5); ("rpc_websearch", 0.05) ]

let inputs ?(seed = 7) w = Inputs.generate ~scale:(List.assoc w small) ~workload:w ~seed ()

let traced_counts o (tr : Trace.t) =
  ( o.Scenario.digest,
    o.Scenario.hops,
    o.Scenario.events,
    (tr.Trace.pops, tr.Trace.pending_max, tr.Trace.switch_taps, tr.Trace.rx_hits) )

let no_failures o =
  Alcotest.(check (list string))
    (Scenario.scheme_name o.Scenario.scheme ^ " checks")
    [] o.Scenario.failures

(* Two traced runs and one untraced run of every scheme on one seed:
   identical digests, identical layer counts, and all checks (ledger,
   workload, trace accounting) pass; on fabric_perm, the qdisc drops
   and marks. *)
let same_seed w () =
  let inp = inputs w in
  List.iter
    (fun scheme ->
      let run () =
        let tr = Trace.create () in
        let o = Scenario.run ~trace:tr ~seed:7 inp scheme in
        no_failures o;
        traced_counts o tr
      in
      let a = run () and b = run () in
      let plain = Scenario.run ~seed:7 inp scheme in
      no_failures plain;
      if scheme = Scenario.Raw then begin
        (* The hotspot fan-in must reach the ECN queue's mark and drop
           path. *)
        Alcotest.(check bool) "qdisc drops" true (plain.Scenario.drops > 0);
        Alcotest.(check bool) "ECN marks" true (plain.Scenario.marks > 0)
      end;
      let digest (d, _, _, _) = d in
      Alcotest.(check bool) "traced runs repeat their counts" true (a = b);
      Alcotest.(check string) "trace does not perturb the outcome" plain.Scenario.digest
        (digest a))
    (Scenario.schemes inp)

let seeds_differ () =
  List.iter
    (fun (w, _) ->
      let f seed = Inputs.fingerprint (inputs ~seed w) in
      Alcotest.(check string) (w ^ " same seed, same inputs") (f 7) (f 7);
      Alcotest.(check bool) (w ^ " other seed, other inputs") true (f 7 <> f 8))
    small

let () =
  Alcotest.run "perfbench"
    [ ( "determinism",
        List.map
          (fun (w, _) -> Alcotest.test_case (w ^ " same seed") `Quick (same_seed w))
          small );
      ("inputs", [ Alcotest.test_case "seed changes inputs" `Quick seeds_differ ]) ]
