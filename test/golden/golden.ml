(* Per-exhibit digests of `mtp_sim all --smoke` output.

   Reads the smoke run's stdout on stdin and splits it into exhibits at
   their "== title ==" header lines.  Each exhibit is digested (MD5 of
   its lines, header included) and written as "<hex>  <title>", one
   line per exhibit, in output order.

     golden.exe                 print the digests
     golden.exe --check FILE    compare against FILE; name every
                                exhibit that changed, appeared or
                                disappeared, and exit 1 if any did

   `all --smoke` prints no wall-clock timings, so the digests of a
   correct tree are stable; any change to them is an output change and
   must be re-baselined deliberately (`make golden-rebaseline`). *)

let is_header line =
  String.length line >= 6
  && String.starts_with ~prefix:"== " line
  && String.ends_with ~suffix:" ==" line

let title_of line = String.sub line 3 (String.length line - 6)

(* (title, digest) per exhibit, in order.  Lines before the first
   header, if any, form an exhibit titled "(preamble)".  A title seen
   before gets its occurrence number appended ("<title> #2"), so runs
   of one exhibit under different flags stay distinct entries. *)
let sections ic =
  let out = ref [] in
  let title = ref "(preamble)" in
  let titles = ref [] in
  let buf = Buffer.create 4096 in
  let flush () =
    if Buffer.length buf > 0 then begin
      let seen = List.length (List.filter (String.equal !title) !titles) in
      titles := !title :: !titles;
      let key =
        if seen = 0 then !title else Printf.sprintf "%s #%d" !title (seen + 1)
      in
      out := (key, Digest.to_hex (Digest.string (Buffer.contents buf))) :: !out
    end;
    Buffer.clear buf
  in
  (try
     while true do
       let line = input_line ic in
       if is_header line then begin
         flush ();
         title := title_of line
       end;
       Buffer.add_string buf line;
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  flush ();
  List.rev !out

let render secs =
  String.concat "" (List.map (fun (t, d) -> Printf.sprintf "%s  %s\n" d t) secs)

let parse_line line =
  match String.index_opt line ' ' with
  | Some i when i + 2 <= String.length line ->
    Some (String.sub line (i + 2) (String.length line - i - 2), String.sub line 0 i)
  | Some _ | None -> None

let read_golden path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (match parse_line line with Some e -> e :: acc | None -> acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let check path got =
  let want = read_golden path in
  let problems =
    List.filter_map
      (fun (t, d) ->
        match List.assoc_opt t got with
        | None -> Some ("missing: " ^ t)
        | Some d' when d' <> d -> Some ("changed: " ^ t)
        | Some _ -> None)
      want
    @ List.filter_map
        (fun (t, _) ->
          if List.mem_assoc t want then None else Some ("new: " ^ t))
        got
  in
  let order_ok = List.map fst want = List.map fst got in
  match problems with
  | [] when order_ok ->
    Printf.printf "golden: %d exhibit digests match %s\n" (List.length got) path;
    0
  | [] ->
    Printf.printf "golden: exhibits reordered relative to %s\n" path;
    1
  | ps ->
    List.iter (Printf.printf "golden: %s\n") ps;
    Printf.printf
      "golden: %d of %d exhibits differ from %s (re-baseline only on \
       purpose: make golden-rebaseline, recorded in CHANGES.md)\n"
      (List.length ps) (List.length want) path;
    1

let () =
  let secs = sections stdin in
  match Array.to_list Sys.argv with
  | [ _ ] -> print_string (render secs)
  | [ _; "--check"; path ] -> exit (check path secs)
  | _ ->
    prerr_endline "usage: golden.exe [--check FILE] < smoke-output";
    exit 2
