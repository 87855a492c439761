type fabric = {
  f_k : int;
  f_perm : int array;
  f_hot : int array;
  f_pkts : Bytes.t array;
  f_start : int array;
  f_hash : int array;
}

type rpc = {
  r_k : int;
  r_at : int array;
  r_src : int array;
  r_dst : int array;
  r_size : int array;
}

type t = Fabric of fabric | Rpc of rpc

let workloads = [ "fabric_perm"; "rpc_websearch" ]

let host_gbps = 10

let packet_sizes = [| 64; 576; 1500 |]

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Engine.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [fabric_perm]: on a k=16 fat-tree, [sources] seeded hosts each
   stream [pkts] pooled raw packets at half their line rate to their
   partner in a seeded derangement, in an equal three-way size mix
   (seeded order).  [hot_sources] of them send half of their packets to
   one of [hot_hosts] seeded hotspots instead: 16 sources at a quarter
   of line rate each fan in 4x onto every hotspot's edge->host
   downlink, so the ECN queue there marks and then drops.  The other
   hosts only sink.  With every host streaming, the run was bound by
   cache misses over the whole fabric, and its time swung by 2x with
   the load of other tenants on the machine; 64 sources keep the
   working set, and those swings, smaller. *)
let fabric ~scale rng =
  let k = 16 in
  let n = k * k * k / 4 in
  let pkts = 3 * scaled scale 512 in
  let sources = 64 and hot_hosts = 2 and hot_sources = 32 in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  (* Fix the points that map to themselves by swapping with a
     neighbour; a swap never creates a new fixed point. *)
  for i = 0 to n - 1 do
    if perm.(i) = i then begin
      let j = (i + 1) mod n in
      perm.(i) <- perm.(j);
      perm.(j) <- i
    end
  done;
  let order = Array.init n Fun.id in
  shuffle rng order;
  let hot = Array.make n (-1) in
  let hot_set = Array.sub order 0 hot_hosts in
  (* Sources come after the hotspots in the shuffled order, hot ones
     first, so no hotspot sends to itself. *)
  for s = 0 to hot_sources - 1 do
    hot.(order.(hot_hosts + s)) <- hot_set.(s mod hot_hosts)
  done;
  let active = Array.make n false in
  for s = 0 to sources - 1 do
    active.(order.(hot_hosts + s)) <- true
  done;
  let pkts_of i =
    if not active.(i) then Bytes.empty
    else begin
      let codes = Array.init pkts (fun j -> j mod Array.length packet_sizes) in
      if hot.(i) >= 0 then
        for j = 0 to (pkts / 2) - 1 do
          codes.(j) <- codes.(j) lor 4
        done;
      shuffle rng codes;
      Bytes.init pkts (fun j -> Char.chr codes.(j))
    end
  in
  let f_pkts = Array.init n pkts_of in
  { f_k = k;
    f_perm = perm;
    f_hot = hot;
    f_pkts;
    f_start = Array.init n (fun _ -> Engine.Rng.int rng 1_000);
    f_hash = Array.init n (fun _ -> Engine.Rng.int rng 0x1000000) }

(* [rpc_websearch]: open-loop Poisson all-to-all messages on a k=8
   fat-tree at [load] of every host's line rate.  Sizes are the [n]
   stratum midpoints of a 64n-draw sample of [Workload.Sizes.websearch]
   (a stratified sample), clamped at [max_bytes] and dealt to arrivals
   in seeded order.  Stratifying keeps the byte volume nearly
   seed-independent, where n plain draws from a tail reaching 30 MB
   swing it by tens of percent.  The clamp keeps the 92 % of the mix up
   to 1 MB: the rarer, larger messages carry most of the bytes, and
   the loss dynamics of a few of them made TCP's and DCTCP's event
   counts vary 1.7x across seeds.  For the same reason the load is
   15 % and a run has 720 messages: what TCP and DCTCP send besides
   the payload (ACKs, retransmissions) still depends on the seed, and
   the quartile spread of the total hop count over ten seeds was 10 %
   with 360 messages and 4 % with 720. *)
let rpc ~scale rng =
  let k = 8 in
  let hosts = k * k * k / 4 in
  let n = scaled scale 720 in
  let load = 0.15 in
  let per = 64 and max_bytes = 1_000_000 in
  let sample =
    Array.init (per * n) (fun _ ->
        Workload.Dist.sample_bytes Workload.Sizes.websearch rng)
  in
  Array.sort compare sample;
  let size = Array.init n (fun i -> min max_bytes sample.((per * i) + (per / 2))) in
  shuffle rng size;
  let mean = float_of_int (Array.fold_left ( + ) 0 size) /. float_of_int n in
  let bytes_per_ns =
    float_of_int hosts *. float_of_int host_gbps *. load /. 8.0
  in
  let gap = mean /. bytes_per_ns in
  let t = ref 0.0 in
  let at =
    Array.init n (fun _ ->
        t := !t +. Engine.Rng.exponential rng ~mean:gap;
        int_of_float !t)
  in
  let src = Array.init n (fun _ -> Engine.Rng.int rng hosts) in
  let dst =
    Array.map (fun s -> (s + 1 + Engine.Rng.int rng (hosts - 1)) mod hosts) src
  in
  { r_k = k; r_at = at; r_src = src; r_dst = dst; r_size = size }

let generate ?(scale = 1.0) ~workload ~seed () =
  let rng = Engine.Rng.create seed in
  match workload with
  | "fabric_perm" -> Fabric (fabric ~scale rng)
  | "rpc_websearch" -> Rpc (rpc ~scale rng)
  | w -> invalid_arg ("unknown workload " ^ w)

let fingerprint t = Digest.to_hex (Digest.string (Marshal.to_string t []))
