(* Compare two sets of e2e.exe results, per (workload, metric).

   compare.exe [--bench BENCHMARK.json] --base FILE... --new FILE...

   Each FILE is the standard output of one run (run.sh or e2e.exe).  For
   every metric the tool prints each side's median and quartiles (Python's
   [statistics.quantiles] method) and a verdict from the metric's bound in
   BENCHMARK.json:

   - better / worse: the medians differ by more than the bound;
   - same: they differ by less;
   - unresolved: either side's spread (quartile distance over median)
     exceeds the bound, so the runs cannot tell — unless every new run
     beats every base run, which reads as better (or the reverse, worse).

   "gain" is the change of the median, signed so that positive is better.
   Per-layer metrics have no bound and get no verdict.  Exit code 1 when
   any metric is worse, 0 otherwise, 2 on bad input. *)

module Json = Netsim.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "%s" msg

let parse_json path line =
  match Json.of_string line with Ok j -> j | Error e -> die "%s: %s" path e

(* (workload, metric name -> value) from one run's output: the line that
   describes the run names the workload, the last line holds the
   metrics. *)
let load path =
  let lines =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '{')
      (String.split_on_char '\n' (read_file path))
  in
  let workload =
    List.find_map
      (fun l -> Option.bind (Json.member "workload" (parse_json path l)) Json.get_string)
      lines
  in
  match (workload, List.rev lines) with
  | Some w, last :: _ -> (
      let result = parse_json path last in
      if Json.member "correct" result <> Some (Json.Bool true) then
        die "%s: the run failed its checks" path;
      match Json.member "metrics" result with
      | Some (Json.Obj fields) ->
          ( w,
            List.filter_map
              (fun (name, m) ->
                Option.map
                  (fun v -> (name, v))
                  (Option.bind (Json.member "value" m) Json.get_float))
              fields )
      | _ -> die "%s: no metrics" path)
  | _ -> die "%s: not the output of e2e.exe" path

(* metric name -> (bound, lower_is_better) *)
let load_bounds path =
  let json = parse_json path (read_file path) in
  let entries key = Option.value ~default:[] (Option.bind (Json.member key json) Json.get_list) in
  List.filter_map
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.get_string in
      match str "name" with
      | None -> None
      | Some name ->
          Some
            ( name,
              ( Option.bind (Json.member "bound" e) Json.get_float,
                str "better" = Some "lower" ) ))
    (entries "end_to_end" @ entries "per_layer")

let summary values =
  let a = Array.of_list values in
  let q = if Array.length a >= 2 then Stat.quartiles a else [| a.(0); a.(0); a.(0) |] in
  (q.(1), q.(0), q.(2))

let spread (med, q1, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let verdict ~bound ~lower base fresh =
  let (bm, _, _) as b = summary base and (fm, _, _) as f = summary fresh in
  (* [gain > 0] means the new side is better. *)
  let gain =
    if bm = 0.0 then 0.0
    else (if lower then bm -. fm else fm -. bm) /. Float.abs bm
  in
  let beats x y = if lower then x < y else x > y in
  let all_better = List.for_all (fun n -> List.for_all (beats n) base) fresh in
  let all_worse = List.for_all (fun o -> List.for_all (beats o) fresh) base in
  match bound with
  | None -> ("-", gain)
  | Some bound ->
      if spread b > bound || spread f > bound then
        if all_better then ("better", gain)
        else if all_worse then ("worse", gain)
        else ("unresolved", gain)
      else if gain > bound then ("better", gain)
      else if gain < -.bound then ("worse", gain)
      else ("same", gain)

let () =
  let bench = ref "BENCHMARK.json" and base = ref [] and fresh = ref [] in
  let side = ref None in
  let rec go = function
    | [] -> ()
    | "--bench" :: p :: rest ->
        bench := p;
        go rest
    | "--base" :: rest ->
        side := Some base;
        go rest
    | "--new" :: rest ->
        side := Some fresh;
        go rest
    | p :: rest -> (
        match !side with
        | Some s ->
            s := p :: !s;
            go rest
        | None -> die "usage: compare.exe [--bench FILE] --base FILE... --new FILE...")
  in
  go (List.tl (Array.to_list Sys.argv));
  if !base = [] || !fresh = [] then
    die "usage: compare.exe [--bench FILE] --base FILE... --new FILE...";
  let bounds = load_bounds !bench in
  let base = List.map load (List.rev !base) and fresh = List.map load (List.rev !fresh) in
  let workloads = List.sort_uniq compare (List.map fst (base @ fresh)) in
  let worse = ref 0 in
  Printf.printf "%-15s %-40s %14s %22s %14s %22s %8s  %s\n" "workload" "metric"
    "base median" "base q1..q3" "new median" "new q1..q3" "gain" "verdict";
  List.iter
    (fun w ->
      let values side name =
        List.filter_map
          (fun (w', metrics) -> if w' = w then List.assoc_opt name metrics else None)
          side
      in
      let names =
        List.sort_uniq compare
          (List.concat_map
             (fun (w', metrics) -> if w' = w then List.map fst metrics else [])
             (base @ fresh))
      in
      List.iter
        (fun name ->
          match (values base name, values fresh name) with
          | [], _ | _, [] -> Printf.printf "%-15s %-40s (one side only)\n" w name
          | b, f ->
              let bound, lower =
                Option.value (List.assoc_opt name bounds) ~default:(None, true)
              in
              let v, gain = verdict ~bound ~lower b f in
              if v = "worse" then incr worse;
              let bm, b1, b3 = summary b and fm, f1, f3 = summary f in
              Printf.printf "%-15s %-40s %14.6g %10.4g..%-10.4g %14.6g %10.4g..%-10.4g %+7.1f%%  %s\n"
                w name bm b1 b3 fm f1 f3 (100.0 *. gain) v)
        names)
    workloads;
  if !worse > 0 then begin
    Printf.printf "compare: %d metric(s) worse\n" !worse;
    exit 1
  end
