(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (the rows/series the paper reports), exactly like `mtp_sim all`.

   Part 2 runs Bechamel micro-benchmarks: one Test.make per paper
   exhibit (a scaled-down end-to-end simulation of that experiment,
   so regressions in any experiment's cost are visible), plus datapath
   micro-benches (header encode/decode, event queue, qdiscs, congestion
   controllers) that dominate simulation cost.

   The datapath guardrails (events/sec, packets/sec, minor-heap words
   per event / per packet, and a backlog drain) live in
   bench/datapath.ml, which writes BENCH_engine.json and enforces the
   regression bars under `--guardrail`. *)

open Bechamel
open Toolkit
open Experiments

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's rows                                             *)

let print_exhibits () =
  let fmt = Format.std_formatter in
  Exp_common.print fmt (Table1_features.result ());
  Exp_common.print fmt (Fig2_proxy.result ());
  Exp_common.print fmt (Fig3_one_rpf.result ());
  Exp_common.print fmt (Fig5_multipath.result ());
  Exp_common.print fmt (Fig6_loadbalance.result ());
  Exp_common.print fmt (Fig7_isolation.result ());
  Exp_common.print fmt (Ablation_pathlets.result ());
  Exp_common.print fmt (Ablation_algorithms.result ());
  Exp_common.print fmt (Ablation_trimming.result ());
  Exp_common.print fmt (Ablation_exclusion.result ());
  Exp_common.print fmt (Ablation_acks.result ());
  Exp_common.print fmt (Header_overhead.result ());
  Exp_common.print fmt (Coexistence.result ());
  Exp_common.print fmt (Ext_leafspine.result ());
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks                                             *)

let header =
  { Mtp.Wire.src_port = 1234; dst_port = 80; msg_id = 42; msg_pri = 3;
    msg_tc = 2; msg_len = 1_000_000; msg_pkts = 695; pkt_num = 17;
    pkt_offset = 24_480; pkt_len = 1440; is_ack = false; cookie = 7;
    cookie2 = 99; path_exclude = [];
    path_feedback =
      [ { Mtp.Wire.fb_path = { Mtp.Wire.path_id = 1; path_tc = 2 };
          fb = Mtp.Feedback.Ecn true } ];
    ack_path_feedback = []; sack = []; nack = [] }

let encoded = Mtp.Wire.encode header

let bench_wire_encode =
  Test.make ~name:"wire/encode" (Staged.stage (fun () -> Mtp.Wire.encode header))

let bench_wire_decode =
  Test.make ~name:"wire/decode" (Staged.stage (fun () -> Mtp.Wire.decode encoded))

let bench_wire_size =
  Test.make ~name:"wire/encoded_size"
    (Staged.stage (fun () -> Mtp.Wire.encoded_size header))

let bench_eventqueue =
  Test.make ~name:"engine/heap-1k"
    (Staged.stage (fun () ->
         let q = Engine.Eventqueue.create ~dummy:() () in
         for i = 0 to 999 do
           Engine.Eventqueue.add q ~time:(i * 7919 mod 1000) ~seq:i ()
         done;
         while not (Engine.Eventqueue.is_empty q) do
           ignore (Engine.Eventqueue.pop q)
         done))

let bench_sim_events =
  Test.make ~name:"engine/sim-10k-events"
    (Staged.stage (fun () ->
         let sim = Engine.Sim.create () in
         let rec tick n =
           if n > 0 then ignore (Engine.Sim.after sim 10 (fun () -> tick (n - 1)))
         in
         tick 10_000;
         Engine.Sim.run sim))

(* A shared clock source for packet construction in the queue benches. *)
let bsim = Engine.Sim.create ()

let bench_qdisc_fifo =
  Test.make ~name:"netsim/fifo-1k-pkts"
    (Staged.stage (fun () ->
         let q = Netsim.Qdisc.fifo ~cap_pkts:2048 () in
         for _ = 1 to 1000 do
           ignore
             (q.Netsim.Qdisc.enqueue
                (Netsim.Packet.make bsim ~src:0 ~dst:1 ~size:1500 ()))
         done;
         let rec drain () =
           match q.Netsim.Qdisc.dequeue () with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()))

let bench_fair_mark =
  Test.make ~name:"netsim/fair_mark-1k-pkts"
    (Staged.stage (fun () ->
         let q =
           Netsim.Qdisc.fair_mark
             ~classify:(fun p -> p.Netsim.Packet.entity)
             ~cap_pkts:2048 ~mark_threshold:16 ()
         in
         for i = 1 to 1000 do
           ignore
             (q.Netsim.Qdisc.enqueue
                (Netsim.Packet.make ~entity:(i land 1) bsim ~src:0 ~dst:1
                   ~size:1500 ()))
         done))

let bench_cc_dctcp =
  Test.make ~name:"mtp/cc-dctcp-1k-acks"
    (Staged.stage (fun () ->
         let cc = Mtp.Cc.create ~mss:1440 (Mtp.Cc.Dctcp { g = 0.0625 }) in
         for i = 1 to 1000 do
           Mtp.Cc.on_ack cc ~now:(i * 1000) ~acked:1440 ~rtt:10_000
             [ Mtp.Feedback.Ecn (i land 7 = 0) ]
         done))

let bench_mtp_transfer =
  Test.make ~name:"mtp/1MB-transfer-e2e"
    (Staged.stage (fun () ->
         let sim = Engine.Sim.create () in
         let topo = Netsim.Topology.create sim in
         let a = Netsim.Topology.host topo "a" in
         let b = Netsim.Topology.host topo "b" in
         ignore
           (Netsim.Topology.wire_host_pair topo a b
              ~rate:(Engine.Time.gbps 100) ~delay:(Engine.Time.us 1) ());
         let ea = Mtp.Endpoint.create a and eb = Mtp.Endpoint.create b in
         Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
         ignore
           (Mtp.Endpoint.send ea ~dst:(Netsim.Node.addr b) ~dst_port:80
              ~size:1_000_000 ());
         Engine.Sim.run sim))

let bench_tcp_transfer =
  Test.make ~name:"tcp/1MB-transfer-e2e"
    (Staged.stage (fun () ->
         let sim = Engine.Sim.create () in
         let topo = Netsim.Topology.create sim in
         let a = Netsim.Topology.host topo "a" in
         let b = Netsim.Topology.host topo "b" in
         ignore
           (Netsim.Topology.wire_host_pair topo a b
              ~rate:(Engine.Time.gbps 100) ~delay:(Engine.Time.us 1) ());
         let ca = Transport.Tcp.install a and cb = Transport.Tcp.install b in
         Transport.Tcp.listen cb ~port:80 (fun _ -> ());
         let conn =
           Transport.Tcp.connect ca ~dst:(Netsim.Node.addr b) ~dst_port:80 ()
         in
         Transport.Tcp.send conn 1_000_000;
         Transport.Tcp.close conn;
         Engine.Sim.run sim))

(* One Test.make per paper exhibit: a scaled-down end-to-end run. *)

let bench_table1 =
  Test.make ~name:"exhibit/table1"
    (Staged.stage (fun () -> ignore (Table1_features.run_demos ())))

let bench_fig2 =
  let config =
    { Fig2_proxy.default with Fig2_proxy.duration = Engine.Time.us 500 }
  in
  Test.make ~name:"exhibit/fig2"
    (Staged.stage (fun () -> ignore (Fig2_proxy.run ~config ())))

let bench_fig3 =
  let config =
    { Fig3_one_rpf.default with Fig3_one_rpf.duration = Engine.Time.us 500 }
  in
  Test.make ~name:"exhibit/fig3"
    (Staged.stage (fun () -> ignore (Fig3_one_rpf.run ~config ())))

let bench_fig5 =
  let config =
    { Fig5_multipath.default with
      Fig5_multipath.duration = Engine.Time.ms 1 }
  in
  Test.make ~name:"exhibit/fig5"
    (Staged.stage (fun () -> ignore (Fig5_multipath.run ~config ())))

let bench_fig6 =
  let config =
    { Fig6_loadbalance.default with
      Fig6_loadbalance.duration = Engine.Time.ms 2;
      max_message = 1_000_000 }
  in
  Test.make ~name:"exhibit/fig6"
    (Staged.stage (fun () -> ignore (Fig6_loadbalance.run ~config ())))

let bench_fig7 =
  let config =
    { Fig7_isolation.default with Fig7_isolation.duration = Engine.Time.ms 2 }
  in
  Test.make ~name:"exhibit/fig7"
    (Staged.stage (fun () -> ignore (Fig7_isolation.run ~config ())))

(* Ablation exhibits, also at reduced scale. *)

let bench_ablation_pathlets =
  Test.make ~name:"ablation/pathlets"
    (Staged.stage (fun () ->
         ignore (Ablation_pathlets.run ~duration:(Engine.Time.ms 1) ())))

let bench_ablation_algorithms =
  Test.make ~name:"ablation/algorithms"
    (Staged.stage (fun () ->
         ignore (Ablation_algorithms.run ~duration:(Engine.Time.ms 1) ())))

let bench_ablation_trimming =
  Test.make ~name:"ablation/trimming"
    (Staged.stage (fun () -> ignore (Ablation_trimming.run ~senders:8 ())))

let bench_ablation_exclusion =
  Test.make ~name:"ablation/exclusion"
    (Staged.stage (fun () ->
         ignore (Ablation_exclusion.run ~duration:(Engine.Time.ms 2) ())))

let bench_coexistence =
  Test.make ~name:"ablation/coexistence"
    (Staged.stage (fun () ->
         ignore (Coexistence.run ~duration:(Engine.Time.ms 2) ())))

let bench_leafspine =
  Test.make ~name:"ablation/leaf-spine"
    (Staged.stage (fun () ->
         ignore (Ext_leafspine.run ~duration:(Engine.Time.ms 1) ())))

let bench_ablation_acks =
  Test.make ~name:"ablation/ack-aggregation"
    (Staged.stage (fun () ->
         ignore (Ablation_acks.run ~duration:(Engine.Time.ms 1) ())))

let tests =
  Test.make_grouped ~name:"mtp-repro"
    [ bench_wire_encode; bench_wire_decode; bench_wire_size;
      bench_eventqueue; bench_sim_events; bench_qdisc_fifo; bench_fair_mark;
      bench_cc_dctcp; bench_mtp_transfer; bench_tcp_transfer; bench_table1;
      bench_fig2; bench_fig3; bench_fig5; bench_fig6; bench_fig7;
      bench_ablation_pathlets; bench_ablation_algorithms;
      bench_ablation_trimming; bench_ablation_exclusion; bench_coexistence;
      bench_ablation_acks; bench_leafspine ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== micro-benchmarks (ns per run, OLS on monotonic clock) ==\n";
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, estimate) :: acc)
      results []
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-40s %14.1f ns/run\n" name est)
    (List.sort compare rows)

let () =
  print_exhibits ();
  run_benchmarks ()
