module S = Scenario

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  lines : string list;
}

let min_reps = 3

(* Set-up-only rounds after each repetition.  A set-up takes
   milliseconds, and on rpc_websearch the median over the repetitions
   alone (about ten) was the noisiest end-to-end figure. *)
let setup_rounds = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Failure bookkeeping shared by both modes: one entry per scheme-run,
   with the first digest seen per scheme as the reference every later
   same-seed run must reproduce. *)
type book = {
  mutable attempted : int;
  mutable failed : int;
  mutable lines : string list;  (** Reversed. *)
  reference : (S.scheme, string) Hashtbl.t;
}

let book () = { attempted = 0; failed = 0; lines = []; reference = Hashtbl.create 4 }

let note b line = b.lines <- line :: b.lines

let fail b label msgs =
  b.failed <- b.failed + 1;
  List.iter (fun m -> note b (Printf.sprintf "FAIL %s: %s" label m)) msgs

(* Runs one scheme and judges it; [extra] adds mode-specific checks. *)
let attempt b ?trace ?(extra = fun _ _ -> []) ~seed inputs scheme =
  b.attempted <- b.attempted + 1;
  let label =
    Printf.sprintf "%s%s" (S.scheme_name scheme)
      (if trace = None then "" else " (traced)")
  in
  match S.run ?trace ~seed inputs scheme with
  | exception e ->
    fail b label [ "exception " ^ Printexc.to_string e ];
    None
  | o ->
    let digest_check =
      match Hashtbl.find_opt b.reference scheme with
      | None ->
        Hashtbl.add b.reference scheme o.S.digest;
        note b
          (Printf.sprintf "digest %s %s  %s" (S.scheme_name scheme) o.S.digest
             o.S.outcome_line);
        []
      | Some d when d = o.S.digest -> []
      | Some d ->
        [ Printf.sprintf "digest %s differs from the first run's %s (%s)"
            o.S.digest d o.S.outcome_line ]
    in
    (match o.S.failures @ digest_check @ extra o trace with
    | [] -> ()
    | msgs -> fail b label msgs);
    Some o

(* Repeat [rep] until [seconds] are spent, never fewer than
   [min_reps] times; a repetition is not started when the previous
   one's duration says it would overrun. *)
let repeat ~seconds rep =
  let t0 = Clock.now_ns () in
  let rec go acc n =
    let r0 = Clock.now_ns () in
    let acc = rep () :: acc in
    let r1 = Clock.now_ns () in
    let spent = Clock.to_s (r1 - t0) and last = Clock.to_s (r1 - r0) in
    if n + 1 < min_reps || spent +. last <= seconds then go acc (n + 1)
    else List.rev acc
  in
  go [] 0

let sum f os = List.fold_left (fun a o -> a + f o) 0 os
let fsum f os = List.fold_left (fun a o -> a +. f o) 0.0 os
let secs f reps = median (List.map (fun os -> Clock.to_s (sum f os)) reps)

(* One repetition: every scheme of the workload, each with a fresh
   trace when [traced]. *)
let run_all b ?(traced = false) ?extra ~seed inputs =
  List.filter_map
    (fun scheme ->
      let trace = if traced then Some (Trace.create ()) else None in
      Option.map
        (fun o -> (o, trace))
        (attempt b ?trace ?extra ~seed inputs scheme))
    (S.schemes inputs)

let finish b metrics =
  { correct = b.failed = 0;
    attempted = b.attempted;
    failed = b.failed;
    metrics;
    lines =
      List.rev b.lines
      @ [ Printf.sprintf "scheme-runs failed/attempted %d/%d" b.failed b.attempted ] }

let timed ~seconds ~seed inputs =
  let b = book () in
  let setup os = sum (fun o -> o.S.topology_ns + o.S.attach_ns) os in
  let extra_setups = ref [] in
  let reps =
    repeat ~seconds (fun () ->
        let os = List.map fst (run_all b ~seed inputs) in
        (* Only after a repetition whose scheme-runs all got past
           set-up: an exception there is a counted failure, here it
           would end the process. *)
        if List.length os = List.length (S.schemes inputs) then
          for _ = 1 to setup_rounds do
            extra_setups :=
              List.fold_left (fun a s -> a + S.setup_ns ~seed inputs s) 0 (S.schemes inputs)
              :: !extra_setups
          done;
        os)
  in
  let first = List.hd reps in
  let wall = secs (fun o -> o.S.wall_ns) reps in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  note b
    (Printf.sprintf "repetitions %d, wall_s %s" (List.length reps)
       (String.concat " "
          (List.map
             (fun os -> Printf.sprintf "%.4f" (Clock.to_s (sum (fun o -> o.S.wall_ns) os)))
             reps)));
  finish b
    [ { name = "wall_s"; value = wall; unit_ = "s" };
      { name = "setup_s";
        value =
          median (List.map Clock.to_s (List.map setup reps @ !extra_setups));
        unit_ = "s" };
      { name = "hops_per_s";
        value = float_of_int (sum (fun o -> o.S.hops) first) /. wall;
        unit_ = "1/s" };
      { name = "msgs_per_s";
        value = float_of_int (sum (fun o -> o.S.messages) first) /. wall;
        unit_ = "1/s" };
      { name = "peak_heap_mb";
        value = float_of_int heap /. 1048576.0;
        unit_ = "MB" } ]

(* The trace's own counts, which every traced run of a scheme must
   repeat exactly (the digest covers the simulated outcome). *)
let trace_counts tr =
  (tr.Trace.pops, tr.Trace.pending_max, tr.Trace.switch_taps, tr.Trace.rx_hits)

let traced ~seconds ~seed inputs =
  let b = book () in
  let first_counts = Hashtbl.create 4 in
  let pairs =
    repeat ~seconds (fun () ->
        let plain = List.map fst (run_all b ~seed inputs) in
        let extra o tr =
          let tr = Option.get tr in
          (match List.find_opt (fun p -> p.S.scheme = o.S.scheme) plain with
          | Some p when p.S.digest <> o.S.digest ->
            [ "traced digest differs from the untraced run's" ]
          | _ -> [])
          @
          match Hashtbl.find_opt first_counts o.S.scheme with
          | None ->
            Hashtbl.add first_counts o.S.scheme (trace_counts tr);
            []
          | Some c when c = trace_counts tr -> []
          | Some _ -> [ "trace counts differ from the first traced run's" ]
        in
        let traced = run_all b ~traced:true ~extra ~seed inputs in
        (plain, List.map (fun (o, tr) -> (o, Option.get tr)) traced))
  in
  note b (Printf.sprintf "repetitions %d untraced + traced pairs" (List.length pairs));
  let plain0, traced0 = List.hd pairs in
  let plains = List.map fst pairs in
  let traces = List.map (fun (_, t) -> List.map snd t) pairs in
  let tsecs f = median (List.map (fun trs -> Clock.to_s (sum f trs)) traces) in
  let outs0 = List.map fst traced0 and trs0 = List.map snd traced0 in
  let events = sum (fun o -> o.S.events) outs0 in
  let hops = sum (fun o -> o.S.hops) outs0 in
  let pops = sum (fun t -> t.Trace.pops) trs0 in
  let step_s = tsecs (fun t -> t.Trace.step_ns) in
  let fresh = sum (fun o -> o.S.pool_fresh) outs0 in
  let reused = sum (fun o -> o.S.pool_reused) outs0 in
  let count name v = { name; value = float_of_int v; unit_ = "count" } in
  let sec name v = { name; value = v; unit_ = "s" } in
  let rat name v = { name; value = v; unit_ = "ratio" } in
  let per_scheme scheme =
    let p = "transport." ^ S.scheme_name scheme ^ "." in
    let mine runs = List.filter (fun (o, _) -> o.S.scheme = scheme) runs in
    let ssecs f =
      median
        (List.map (fun (_, t) -> Clock.to_s (sum (fun (_, tr) -> f tr) (mine t))) pairs)
    in
    let one f = sum (fun (o, _) -> f o) (mine traced0) in
    [ sec (p ^ "rx_s") (ssecs (fun t -> t.Trace.rx_ns));
      sec (p ^ "host_step_s") (ssecs (fun t -> t.Trace.host_step_ns));
      sec (p ^ "send_s") (ssecs (fun t -> t.Trace.send_ns));
      count (p ^ "host_rx_pkts") (one (fun o -> o.S.host_rx));
      count (p ^ "retransmits") (one (fun o -> o.S.retransmits));
      rat (p ^ "goodput_ratio")
        (ratio (one (fun o -> o.S.rx_bytes)) (one (fun o -> o.S.uplink_bytes))) ]
  in
  let plain_wall = secs (fun o -> o.S.wall_ns) plains in
  let traced_wall =
    secs (fun o -> o.S.wall_ns) (List.map (fun (_, t) -> List.map fst t) pairs)
  in
  finish b
    ([ count "engine.events" events;
       count "engine.pops" pops;
       rat "engine.useful_pop_ratio" (ratio events pops);
       rat "engine.events_per_hop" (ratio events hops);
       count "engine.pending_max"
         (List.fold_left (fun a t -> max a t.Trace.pending_max) 0 trs0);
       sec "engine.step_s" step_s;
       { name = "engine.ns_per_step";
         value = step_s *. 1e9 /. float_of_int (max 1 pops);
         unit_ = "ns" };
       count "netsim.hops" hops;
       count "netsim.sends" (sum (fun o -> o.S.sends) outs0);
       rat "netsim.delivery_ratio" (ratio hops (sum (fun o -> o.S.sends) outs0));
       count "netsim.qdisc_drops" (sum (fun o -> o.S.drops) outs0);
       count "netsim.qdisc_marks" (sum (fun o -> o.S.marks) outs0);
       count "netsim.qdisc_trims" (sum (fun o -> o.S.trims) outs0);
       count "netsim.switch_rx" (sum (fun o -> o.S.switch_rx) outs0);
       rat "netsim.pool_reuse_ratio" (ratio reused (fresh + reused));
       sec "netsim.switch_step_s" (tsecs (fun t -> t.Trace.switch_step_ns));
       sec "netsim.other_step_s" (tsecs (fun t -> t.Trace.other_step_ns));
       sec "netsim.host_step_s" (tsecs (fun t -> t.Trace.host_step_ns)) ]
    @ List.concat_map per_scheme S.[ Tcp; Dctcp; Mtp ]
    @ [ sec "workload.callback_s" (tsecs (fun t -> t.Trace.callback_ns));
        sec "stats.summary_s" (secs (fun o -> o.S.summary_ns) plains);
        rat "gc.minor_words_per_hop"
          (fsum (fun o -> o.S.minor_words) plain0 /. float_of_int (max 1 hops));
        { name = "gc.major_words";
          value = fsum (fun o -> o.S.major_words) plain0;
          unit_ = "words" };
        count "gc.minor_collections" (sum (fun o -> o.S.minor_gcs) plain0);
        count "gc.major_collections" (sum (fun o -> o.S.major_gcs) plain0);
        sec "setup.topology_s" (secs (fun o -> o.S.topology_ns) plains);
        sec "setup.attach_s" (secs (fun o -> o.S.attach_ns) plains);
        rat "trace.overhead_ratio" (traced_wall /. plain_wall) ])

(* All digits: a value is printed so that it reads back exactly.  A
   run whose scheme-runs all failed has no times; JSON has no nan. *)
let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json t =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))
