(* Fabric-scale guardrail bench: minor words/event must stay flat as
   host count grows 64 -> 4096.

   Each sweep point builds an interval-routed fabric (two-tier Clos,
   k=16 fat-tree, three-tier Clos), then drives a fixed raw-packet
   permutation workload through pooled packets: 16 spread sources send
   to hosts half a fabric away at half their line rate, cycling
   flow_hash so every ECMP table is exercised.  Reported per point:
   minor words/event, minor words per delivered packet, packets/s,
   events/s.

   One more measurement feeds the guardrail: a pure routing-lookup
   loop (ports_for + ecmp_port on a warmed 4096-host edge table) that
   must allocate nothing at all.

   Results append a "scale" section to BENCH_engine.json (created by
   bench/datapath.exe; `make check` runs that first).  `--guardrail`
   enforces: flatness (words/event at 4096 hosts within 1.15x of the
   64-host value, or both below an absolute allocation-free floor) and
   zero-allocation lookups. *)

let host_rate = Engine.Time.gbps 10
let fabric_rate = Engine.Time.gbps 40
let delay = Engine.Time.us 2
let sources = 16
let pkts_per_source = 3_000
let timed_runs = 3
let lookup_calls = 2_000_000

type world = { sim : Engine.Sim.t; hosts : Netsim.Node.t array }

let build_mls ~pods ~leaves ~spines ~supers ~hpl () =
  let sim = Engine.Sim.create () in
  let net =
    Netsim.Fabric.into_sim sim
      (Netsim.Fabric.multi_leaf_spine ~pods ~leaves ~spines ~supers
         ~hosts_per_leaf:hpl ~host_rate ~fabric_rate ~delay ())
  in
  { sim; hosts = net.Netsim.Fabric.hosts }

let build_ft ~k () =
  let sim = Engine.Sim.create () in
  let net =
    Netsim.Fabric.into_sim sim
      (Netsim.Fabric.fat_tree ~k ~host_rate ~fabric_rate ~delay ())
  in
  { sim; hosts = net.Netsim.Fabric.hosts }

type point_spec = { label : string; nhosts : int; build : unit -> world }

let points =
  [ { label = "ls-8x8";
      nhosts = 64;
      build = build_mls ~pods:1 ~leaves:8 ~spines:4 ~supers:0 ~hpl:8 };
    { label = "ls-16x16";
      nhosts = 256;
      build = build_mls ~pods:1 ~leaves:16 ~spines:8 ~supers:0 ~hpl:16 };
    { label = "fat-tree-k16"; nhosts = 1024; build = build_ft ~k:16 };
    { label = "clos-8x16x32";
      nhosts = 4096;
      build =
        build_mls ~pods:8 ~leaves:16 ~spines:8 ~supers:8 ~hpl:32 } ]

(* One workload pass: every source streams [pkts_per_source] packets
   to its antipodal host at half line rate, with a fresh flow_hash per
   packet.  Returns delivered count.  Packets recycle through the pool
   and timers re-arm in place, so steady-state allocation per event is
   small and independent of fabric size. *)
let workload w =
  let nhosts = Array.length w.hosts in
  let pool = Netsim.Packet.pool w.sim in
  let delivered = ref 0 in
  Array.iter
    (fun h ->
      Netsim.Node.set_handler h (fun pkt ->
          incr delivered;
          Netsim.Packet.release pool pkt))
    w.hosts;
  let gap =
    2 * Engine.Time.tx_time ~bytes:1500 ~rate:host_rate
  in
  let hash = ref 0 in
  for s = 0 to sources - 1 do
    let src_idx = s * nhosts / sources in
    let dst_idx = (src_idx + (nhosts / 2) + 1) mod nhosts in
    let src = w.hosts.(src_idx) in
    let dst_addr = Netsim.Node.addr w.hosts.(dst_idx) in
    let src_addr = Netsim.Node.addr src in
    let link = Netsim.Node.uplink src in
    let sent = ref 0 in
    ignore
      (Engine.Sim.periodic w.sim ~interval:gap (fun () ->
           hash := !hash + 1;
           let h = !hash * 0x9E3779B1 land 0xFFFFFF in
           Netsim.Link.send link
             (Netsim.Packet.recycle pool ~flow_hash:h ~src:src_addr
                ~dst:dst_addr ~size:1500 ());
           incr sent;
           !sent < pkts_per_source))
  done;
  Engine.Sim.run w.sim;
  !delivered

type point_out = {
  p_label : string;
  p_hosts : int;
  p_words_per_event : float;
  p_words_per_packet : float;
  p_pkt_rate : float;
  p_ev_rate : float;
}

(* Build once, warm once (pool fill, route live-set refresh, array
   sizing), then best-of-N timed passes on the same world. *)
let run_point spec =
  let w = spec.build () in
  ignore (workload w);
  let best = ref (infinity, infinity, 0, 0) in
  for _ = 1 to timed_runs do
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let e0 = Engine.Sim.events_processed w.sim in
    let t0 = Unix.gettimeofday () in
    let delivered = workload w in
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    let events = Engine.Sim.events_processed w.sim - e0 in
    if t1 -. t0 < (fun (s, _, _, _) -> s) !best then
      best := (t1 -. t0, words, events, delivered)
  done;
  let secs, words, events, delivered = !best in
  { p_label = spec.label;
    p_hosts = spec.nhosts;
    p_words_per_event = words /. float_of_int (max 1 events);
    p_words_per_packet = words /. float_of_int (max 1 delivered);
    p_pkt_rate = float_of_int delivered /. secs;
    p_ev_rate = float_of_int events /. secs }

(* Pure lookup cost on the biggest table: a warmed edge/leaf table of
   the 4096-host fabric, 2M ports_for + ecmp_port calls over cycling
   (dst, flow_hash).  Total minor words must be zero — the lookup is
   a bounds-checked array index with no hashing and no option or
   action block. *)
let run_lookup () =
  let sim = Engine.Sim.create () in
  let module F = Netsim.Fabric in
  let d =
    F.multi_leaf_spine ~pods:8 ~leaves:16 ~spines:8 ~supers:8
      ~hosts_per_leaf:32 ~host_rate ~fabric_rate ~delay ()
  in
  let net = F.into_sim sim d in
  let routes = net.F.tables.(net.F.slot.(F.node_index d "leaf0_0")) in
  let nhosts = Array.length net.F.hosts in
  let pool = Netsim.Packet.pool sim in
  let probe = Netsim.Packet.recycle pool ~src:0 ~dst:0 ~size:1500 () in
  (* Warm every live set once so lazy refreshes are off the clock. *)
  for d = 0 to nhosts - 1 do
    ignore (Netsim.Routing.ports_for routes d)
  done;
  let sink = ref 0 in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to lookup_calls - 1 do
    probe.Netsim.Packet.dst <- i mod nhosts;
    probe.Netsim.Packet.flow_hash <- i;
    sink := !sink + Netsim.Routing.ecmp_port routes probe
  done;
  let t1 = Unix.gettimeofday () in
  let words = Gc.minor_words () -. w0 in
  ignore !sink;
  (words, float_of_int lookup_calls /. (t1 -. t0))

type report = {
  pts : point_out list;
  lookup_words : float;
  lookup_rate : float;
}

let collect () =
  let pts = List.map run_point points in
  let lookup_words, lookup_rate = run_lookup () in
  { pts; lookup_words; lookup_rate }

let flatness r =
  let wpe label =
    match List.find_opt (fun p -> p.p_label = label) r.pts with
    | Some p -> p.p_words_per_event
    | None -> nan
  in
  (wpe "ls-8x8", wpe "clos-8x16x32")

let flatness_bar = 1.15

(* Sub-quarter-word/event is allocation-free territory: when both ends
   of the sweep sit under it, the ratio is noise on noise and the
   sweep is flat by the absolute criterion. *)
let flat_floor = 0.25

let print_report r =
  Printf.printf "== scale sweep (words stay flat 64 -> 4096 hosts) ==\n";
  List.iter
    (fun p ->
      Printf.printf
        "%-14s %5d hosts %8.3f words/event %8.3f words/pkt %10.0f pkt/s %11.0f ev/s\n"
        p.p_label p.p_hosts p.p_words_per_event p.p_words_per_packet
        p.p_pkt_rate p.p_ev_rate)
    r.pts;
  let w64, w4096 = flatness r in
  Printf.printf "%-14s %.3f -> %.3f words/event (bar %.2fx, floor %.2f)\n"
    "flatness" w64 w4096 flatness_bar flat_floor;
  Printf.printf
    "%-14s %.1f minor words over %d lookups (%.0f lookups/s)\n" "lookup"
    r.lookup_words lookup_calls r.lookup_rate

(* Append/replace the "scale" section of BENCH_engine.json in place,
   preserving whatever bench/datapath.exe wrote. *)
let scale_marker = ",\n  \"scale\":"

let read_file path =
  match open_in path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

let strip_trailing s =
  let n = ref (String.length s) in
  while
    !n > 0
    && (match s.[!n - 1] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
  do
    decr n
  done;
  String.sub s 0 !n

let json_prefix () =
  match read_file "BENCH_engine.json" with
  | None -> "{"
  | Some content -> (
    (* Re-runs replace the previous scale section. *)
    let content =
      match Str.search_forward (Str.regexp_string scale_marker) content 0 with
      | i -> String.sub content 0 i ^ "\n}"
      | exception Not_found -> content
    in
    let content = strip_trailing content in
    match String.length content with
    | 0 -> "{"
    | n when content.[n - 1] = '}' -> strip_trailing (String.sub content 0 (n - 1))
    | _ -> content)

let write_json r =
  let prefix = json_prefix () in
  let sep = if String.length prefix > 0 && prefix.[String.length prefix - 1] = '{' then "" else "," in
  let oc = open_out "BENCH_engine.json" in
  output_string oc prefix;
  output_string oc sep;
  Printf.fprintf oc "\n  \"scale\": {\n    \"points\": [";
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "%s\n      { \"topo\": %S, \"hosts\": %d, \"minor_words_per_event\": %.3f, \"minor_words_per_packet\": %.3f, \"packets_per_sec\": %.0f, \"events_per_sec\": %.0f }"
        (if i = 0 then "" else ",")
        p.p_label p.p_hosts p.p_words_per_event p.p_words_per_packet
        p.p_pkt_rate p.p_ev_rate)
    r.pts;
  let w64, w4096 = flatness r in
  Printf.fprintf oc
    "\n    ],\n    \"flatness_words_per_event_64\": %.3f,\n    \"flatness_words_per_event_4096\": %.3f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"lookup_minor_words\": %.1f,\n    \"lookup_calls\": %d,\n    \"lookups_per_sec\": %.0f\n  }\n}\n"
    w64 w4096 flatness_bar flat_floor r.lookup_words lookup_calls
    r.lookup_rate;
  close_out oc;
  Printf.printf "wrote BENCH_engine.json (scale section)\n"

let guardrail r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let w64, w4096 = flatness r in
  if w4096 > Float.max (flatness_bar *. w64) flat_floor then
    fail
      "words/event grew with scale: %.3f at 4096 hosts vs %.3f at 64 \
       (bar %.2fx, floor %.2f)"
      w4096 w64 flatness_bar flat_floor;
  (* A single allocation in 2M calls would show as >= 2 words. *)
  if r.lookup_words > 1.0 then
    fail "routing lookup allocated %.1f minor words over %d calls"
      r.lookup_words lookup_calls;
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
