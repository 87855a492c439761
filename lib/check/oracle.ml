(* Invariant oracles beyond conservation: event-order and
   transport-state checks, designed to be cheap enough to run inside
   every fuzz case.

   Event order: the engine's heap pops strictly by (time, seq), so any
   packet observed by a tap at a time earlier than a previously
   observed one means an ordering bug (or a component lying about
   [Sim.now]).

   Link timing: a link serialises one packet at a time and delays all
   of them equally, so two consecutive deliveries can be no closer
   than the later packet's serialisation time.  This holds for any
   correct link datapath, so it checks the datapath itself rather
   than comparing it against a second implementation.

   Transport state: completion callbacks fire at most once per
   message; MTP pathlet tables stay internally consistent (the
   exclusion set is a subset of the known paths, every excluded path
   really is suspect, in-flight accounting and congestion windows
   never go negative). *)

type monotone = {
  mutable last : Engine.Time.t;
  mutable violation : string option;
}

let monotone () = { last = Engine.Time.zero; violation = None }

let observe m at =
  if at < m.last && m.violation = None then
    m.violation <-
      Some
        (Printf.sprintf "time ran backwards: observed t=%d after t=%d" at
           m.last);
  if at > m.last then m.last <- at

let tap m at _p = observe m at

let monotone_result m =
  match m.violation with None -> Ok () | Some msg -> Error msg

type spacing = {
  s_name : string;
  s_rate : Engine.Time.rate;
  mutable s_last : Engine.Time.t;  (* -1 before the first delivery *)
  mutable s_violation : string option;
}

let spacing l =
  { s_name = Netsim.Link.name l; s_rate = Netsim.Link.rate l; s_last = -1;
    s_violation = None }

let spacing_tap s at (p : Netsim.Packet.t) =
  let tx = Engine.Time.tx_time ~bytes:p.Netsim.Packet.size ~rate:s.s_rate in
  if s.s_last >= 0 && at - s.s_last < tx && s.s_violation = None then
    s.s_violation <-
      Some
        (Printf.sprintf
           "link %s: packet %d delivered at t=%d, %d ns after the previous \
            delivery, under its %d ns serialisation time"
           s.s_name p.Netsim.Packet.uid at (at - s.s_last) tx);
  s.s_last <- at

let spacing_result s =
  match s.s_violation with None -> Ok () | Some msg -> Error msg

let completions_once counts =
  let bad = ref [] in
  Array.iteri
    (fun i n ->
      if n > 1 then
        bad := Printf.sprintf "message %d completed %d times" i n :: !bad)
    counts;
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))

let pathlets_consistent tbl =
  let known = Mtp.Pathlet.known tbl in
  let suspects = Mtp.Pathlet.suspects tbl in
  let bad = ref [] in
  let note msg = bad := msg :: !bad in
  List.iter
    (fun r ->
      if not (Mtp.Pathlet.suspect tbl r) then
        note
          (Printf.sprintf "path %d in exclusion set but not suspect"
             r.Mtp.Wire.path_id);
      if not (List.exists (fun (k, _) -> k = r) known) then
        note
          (Printf.sprintf "path %d excluded but unknown" r.Mtp.Wire.path_id))
    suspects;
  List.iter
    (fun (r, cc) ->
      let w = Mtp.Cc.window cc in
      if w < 0 then
        note
          (Printf.sprintf "path %d: negative congestion window %d"
             r.Mtp.Wire.path_id w);
      let infl = Mtp.Pathlet.inflight tbl r in
      if infl < 0 then
        note
          (Printf.sprintf "path %d: negative in-flight %d" r.Mtp.Wire.path_id
             infl);
      let strikes = Mtp.Pathlet.strikes tbl r in
      if strikes < 0 then
        note
          (Printf.sprintf "path %d: negative strike count %d"
             r.Mtp.Wire.path_id strikes))
    known;
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))

let endpoint_ok ep =
  let bad = ref [] in
  let nonneg what n =
    if n < 0 then bad := Printf.sprintf "%s negative (%d)" what n :: !bad
  in
  nonneg "completed" (Mtp.Endpoint.completed ep);
  nonneg "failed" (Mtp.Endpoint.failed ep);
  nonneg "retransmits" (Mtp.Endpoint.retransmits ep);
  nonneg "delivered_messages" (Mtp.Endpoint.delivered_messages ep);
  nonneg "active_messages" (Mtp.Endpoint.active_messages ep);
  (match pathlets_consistent (Mtp.Endpoint.pathlets ep) with
  | Ok () -> ()
  | Error msg -> bad := msg :: !bad);
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))
