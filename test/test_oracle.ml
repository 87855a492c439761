(* Exhibit-level oracles on the link datapath: an exhibit renders the
   same bytes inline and on a worker domain, a pooled forwarding chain
   conserves every packet, and the link-timing oracle used by every
   fuzz case flags deliveries closer than one serialisation time. *)

open Netsim

let check = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Render an experiment result exactly as `mtp_sim` prints it. *)
let render result =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Experiments.Exp_common.print ~dump_series:true fmt result;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* Fig. 5 (multipath alternation) exercises both transports, ECN
   marking, path flipping and per-pathlet feedback — a dense slice of
   the simulator.  The same seed must render the same bytes when run
   again and when run on a worker domain.  A shortened run keeps the
   suite fast; the full smoke run is pinned by the golden digests. *)
let test_fig5_deterministic () =
  let config =
    { Experiments.Fig5_multipath.default with duration = Engine.Time.ms 2 }
  in
  let run () = render (Experiments.Fig5_multipath.result ~config ()) in
  let first = run () in
  check "fig5 stdout identical on rerun" first (run ());
  check "fig5 stdout identical on another domain" first
    (Domain.join (Domain.spawn run))

(* Packet conservation through a pooled two-hop forwarding chain:
   every packet checked out of the pool is, at every instant, either
   queued, on a wire, or released back.  The conservation ledger and
   the link-timing oracle watch both links. *)
let test_conservation () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let l1 =
    Link.create sim ~name:"a" ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ~pool ()
  in
  let l2 =
    Link.create sim ~name:"b" ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ~pool ()
  in
  let sw = Switch.create sim ~name:"sw" ~pool () in
  let port = Switch.add_port sw l2 in
  Switch.set_forward sw (fun _ -> Switch.Forward port);
  Link.set_dst l1 (fun p -> Switch.receive sw p);
  let delivered = ref 0 in
  Link.set_dst l2 (fun p ->
      incr delivered;
      Packet.release pool p);
  let ledger = Check.Ledger.create () in
  Check.Ledger.watch_link ledger l1;
  Check.Ledger.watch_link ledger l2;
  Check.Ledger.watch_switch ledger sw;
  let spacings =
    List.map
      (fun l ->
        let s = Check.Oracle.spacing l in
        Link.add_tap l (Check.Oracle.spacing_tap s);
        s)
      [ l1; l2 ]
  in
  let max_live = ref 0 in
  let audit () =
    let live = Packet.pool_live pool in
    if live > !max_live then max_live := live;
    let accounted =
      Link.queued_pkts l1 + Link.in_flight_pkts l1 + Link.queued_pkts l2
      + Link.in_flight_pkts l2
    in
    checki "pool_live = queued + in-flight" live accounted
  in
  let sent = ref 0 in
  ignore
  @@ Engine.Sim.periodic sim ~interval:(Engine.Time.ns 800) (fun () ->
         (* Two back-to-back sends so bursts actually form. *)
         Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
         Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
         sent := !sent + 2;
         !sent < 2_000);
  ignore
  @@ Engine.Sim.periodic sim ~interval:(Engine.Time.us 3) (fun () ->
         audit ();
         Engine.Sim.now sim < Engine.Time.ms 2);
  Engine.Sim.run sim;
  audit ();
  (* The source oversubscribes the 10 G hop, so the drop path is
     exercised too; with the final drain complete, delivery + drops
     must account for every send. *)
  checki "delivered + dropped = sent" 2_000
    (!delivered + (Link.qdisc l1).Qdisc.drops ());
  checki "nothing left checked out" 0 (Packet.pool_live pool);
  checkb "bursts queued up" true (!max_live > 2);
  Alcotest.(check (list string)) "ledger clean" [] (Check.Ledger.failures ledger);
  List.iter
    (fun s ->
      Alcotest.(check (result unit string))
        "deliveries spaced by serialisation" (Ok ())
        (Check.Oracle.spacing_result s))
    spacings

(* The spacing oracle itself: two 1500 B deliveries on a 10 G link
   (1.2 us serialisation) 1 us apart cannot both have crossed the
   wire. *)
let test_spacing_oracle_flags () =
  let sim = Engine.Sim.create () in
  let l =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  let s = Check.Oracle.spacing l in
  let p = Packet.make sim ~src:0 ~dst:1 ~size:1500 () in
  Check.Oracle.spacing_tap s 5_000 p;
  Check.Oracle.spacing_tap s 6_200 p;
  checkb "exactly one serialisation apart is fine" true
    (Result.is_ok (Check.Oracle.spacing_result s));
  Check.Oracle.spacing_tap s 7_200 p;
  checkb "closer than one serialisation is flagged" true
    (Result.is_error (Check.Oracle.spacing_result s))

let suite =
  [ Alcotest.test_case "fig5 stdout: rerun == worker domain" `Slow
      test_fig5_deterministic;
    Alcotest.test_case "packet conservation: pooled chain" `Quick
      test_conservation;
    Alcotest.test_case "link spacing oracle flags overlap" `Quick
      test_spacing_oracle_flags ]
