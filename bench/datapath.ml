(* Datapath guardrail bench: engine event/timer costs, pooled packet
   forwarding, and a backlog drain through one link.

   Three guardrail workloads (event dispatch, timer re-arm, pooled
   packet forward) are compared against the pre-refactor growth-seed
   baselines; the backlog drain is reported alongside them.  Results
   go to stdout and BENCH_engine.json.

   `--guardrail` additionally enforces the allocation bars (non-zero
   exit on regression) — wired into `make check` and CI next to the
   parallel scaling bench. *)

(* Pre-refactor (closure-heap engine, allocating per-packet datapath)
   numbers, measured with the identical drivers below on the growth
   seed. *)
let baseline_words_per_event = 18.00
let baseline_words_per_packet = 74.00

(* Seed packets/s of the pooled packet forward driver below on the
   reference machine, recorded for comparison only: absolute rates
   depend on the host, so no bar is set on them. *)
let baseline_packets_per_sec = 2_027_292.

(* Timed runs per workload after the warm-up run.  Best-of-N: the
   minimum elapsed time is the closest observation of the code's own
   cost — slower runs measure scheduler interference from whatever else
   the machine is doing, not this tree. *)
let timed_runs = 3

(* Run [f] once to warm up (fixes array sizes), then [timed_runs]
   timed runs; report (minor words / op, ops / second) for the fastest
   run.  Allocation is deterministic across runs, so words come from
   the same run. *)
let measure f =
  ignore (f ());
  let best = ref (infinity, infinity) in
  let ops = ref 1 in
  for _ = 1 to timed_runs do
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ops := f ();
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    if t1 -. t0 < fst !best then best := (t1 -. t0, words)
  done;
  let secs, words = !best in
  (words /. float_of_int !ops, float_of_int !ops /. secs)

(* A chain of self-scheduling events: the cost of one [Sim.after] plus
   one dispatch (the app closure itself accounts for a few words). *)
let datapath_events () =
  let n = 200_000 in
  measure (fun () ->
      let sim = Engine.Sim.create () in
      let rec tick k =
        if k > 0 then ignore (Engine.Sim.after sim 10 (fun () -> tick (k - 1)))
      in
      tick n;
      Engine.Sim.run sim;
      n)

(* One timer object re-armed for every firing: the reusable-timer fast
   path (no per-occurrence closure or handle allocation). *)
let datapath_timer () =
  let n = 200_000 in
  measure (fun () ->
      let sim = Engine.Sim.create () in
      let count = ref 0 in
      let tm_cell = ref None in
      let tm =
        Engine.Sim.timer sim (fun () ->
            match !tm_cell with
            | Some tm ->
              if !count < n then begin
                incr count;
                Engine.Sim.arm_after tm 10
              end
            | None -> ())
      in
      tm_cell := Some tm;
      Engine.Sim.arm_after tm 10;
      Engine.Sim.run sim;
      !count)

(* Steady-state forwarding over a pooled link: one packet on the wire
   at a time (120 ns serialization at 100G, 1 µs propagation), recycled
   on delivery — a lone packet per serialisation, the one-event hop. *)
let datapath_packets () =
  let n = 100_000 in
  measure (fun () ->
      let sim = Engine.Sim.create () in
      let pool = Netsim.Packet.pool sim in
      let link =
        Netsim.Link.create sim ~name:"wire" ~rate:(Engine.Time.gbps 100)
          ~delay:(Engine.Time.us 1) ~pool ()
      in
      let delivered = ref 0 in
      Netsim.Link.set_dst link (fun pkt ->
          incr delivered;
          Netsim.Packet.release pool pkt);
      let gap = Engine.Time.tx_time ~bytes:1500 ~rate:(Engine.Time.gbps 100) in
      let sent = ref 0 in
      ignore
      @@ Engine.Sim.periodic sim ~interval:gap (fun () ->
             Netsim.Link.send link
               (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ());
             incr sent;
             !sent < n);
      Engine.Sim.run sim;
      !delivered)

(* A backlog pushed through a zero-delay link: every packet but the
   last has a successor waiting, so the link pays a completion and a
   delivery per packet.  Only the drain (dequeue, serialisation,
   delivery, sink release) is on the clock — backlog generation
   (recycle + enqueue) happens between timed sections, chunked so the
   packet pool stays warm. *)
let datapath_drain () =
  let n = 200_000 in
  let chunk = 1_024 in
  let run () =
    let sim = Engine.Sim.create () in
    let pool = Netsim.Packet.pool sim in
    let q = Netsim.Qdisc.fifo ~cap_pkts:(2 * chunk) () in
    let link =
      Netsim.Link.create sim ~name:"wire" ~rate:(Engine.Time.gbps 100)
        ~delay:0 ~qdisc:q ~pool ()
    in
    let delivered = ref 0 in
    Netsim.Link.set_dst link (fun pkt ->
        incr delivered;
        Netsim.Packet.release pool pkt);
    let secs = ref 0.0 in
    let words = ref 0.0 in
    let sent = ref 0 in
    while !sent < n do
      let m = min chunk (n - !sent) in
      for _ = 1 to m do
        Netsim.Link.send link
          (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ())
      done;
      sent := !sent + m;
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      Engine.Sim.run sim;
      secs := !secs +. (Unix.gettimeofday () -. t0);
      words := !words +. (Gc.minor_words () -. w0)
    done;
    assert (!delivered = n);
    (!secs, !words)
  in
  ignore (run ());
  let best = ref (infinity, infinity) in
  for _ = 1 to timed_runs do
    Gc.minor ();
    let r = run () in
    if fst r < fst !best then best := r
  done;
  let secs, words = !best in
  (words /. float_of_int n, float_of_int n /. secs)

type report = {
  ev_words : float;
  ev_rate : float;
  tm_words : float;
  tm_rate : float;
  pk_words : float;
  pk_rate : float;
  drain_words : float;
  drain_rate : float;
}

let collect () =
  let ev_words, ev_rate = datapath_events () in
  let tm_words, tm_rate = datapath_timer () in
  let pk_words, pk_rate = datapath_packets () in
  let drain_words, drain_rate = datapath_drain () in
  { ev_words; ev_rate; tm_words; tm_rate; pk_words; pk_rate; drain_words;
    drain_rate }

let print_report r =
  Printf.printf "== datapath guardrails ==\n";
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "sim event (schedule+dispatch)" r.ev_words r.ev_rate
    baseline_words_per_event;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s\n" "timer re-arm" r.tm_words
    r.tm_rate;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "pooled packet forward" r.pk_words r.pk_rate baseline_words_per_packet;
  Printf.printf "%-32s %8.2f words/op %12.0f pkt/s\n" "backlog drain"
    r.drain_words r.drain_rate

let write_json r =
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    {|{
  "baseline": {
    "minor_words_per_event": %.2f,
    "minor_words_per_packet": %.2f,
    "packets_per_sec": %.0f
  },
  "current": {
    "minor_words_per_event": %.2f,
    "minor_words_per_timer_rearm": %.2f,
    "minor_words_per_packet": %.2f,
    "minor_words_per_drain_packet": %.2f,
    "events_per_sec": %.0f,
    "packets_per_sec": %.0f,
    "drain_packets_per_sec": %.0f
  },
  "reduction": {
    "event_words_factor": %.2f,
    "packet_words_factor": %.2f
  }
}
|}
    baseline_words_per_event baseline_words_per_packet
    baseline_packets_per_sec r.ev_words r.tm_words r.pk_words r.drain_words
    r.ev_rate r.pk_rate r.drain_rate
    (baseline_words_per_event /. Float.max 1e-9 r.ev_words)
    (baseline_words_per_packet /. Float.max 1e-9 r.pk_words);
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n"

(* Allocation bars are stable across machines and enforced tightly;
   rates are reported but not gated, since they scale with how fast
   (and how loaded) the machine is. *)
let guardrail r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.ev_words > baseline_words_per_event *. 1.10 then
    fail "event words/op %.2f exceeds baseline %.2f + 10%%" r.ev_words
      baseline_words_per_event;
  if r.pk_words > baseline_words_per_packet *. 1.10 then
    fail "packet words/op %.2f exceeds baseline %.2f + 10%%" r.pk_words
      baseline_words_per_packet;
  match !failures with
  | [] ->
    Printf.printf "guardrail: OK\n";
    true
  | fs ->
    List.iter (Printf.printf "guardrail FAIL: %s\n") (List.rev fs);
    false

let () =
  let r = collect () in
  print_report r;
  write_json r;
  if Array.exists (( = ) "--guardrail") Sys.argv then
    if not (guardrail r) then exit 1
