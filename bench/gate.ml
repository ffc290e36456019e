(* Bench regression gate: compare a fresh BENCH_results.json against a
   committed baseline and fail (exit 1) if any case present in both files
   slowed down by more than the allowed factor. Cases that exist in only
   one file are reported but never fatal, so adding or retiring benchmarks
   does not break CI.

   Usage: gate.exe BASELINE.json FRESH.json [--threshold PCT] *)

module Json = Netsim.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> die "gate: cannot read %s: %s" path msg

(* name -> (ns_per_run, r_square) *)
let load path =
  let json =
    match Json.of_string (read_file path) with
    | Ok j -> j
    | Error msg -> die "gate: %s: %s" path msg
  in
  let results =
    match Option.bind (Json.member "results" json) Json.get_list with
    | Some l -> l
    | None -> die "gate: %s: no \"results\" array" path
  in
  List.filter_map
    (fun r ->
      let field name get = Option.bind (Json.member name r) get in
      match
        ( field "name" Json.get_string,
          field "ns_per_run" Json.get_float,
          field "r_square" Json.get_float )
      with
      | Some name, Some ns, Some r2 -> Some (name, (ns, r2))
      | _ -> None)
    results

let () =
  let threshold = ref 30.0 in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 -> threshold := t
        | _ -> die "gate: bad --threshold %s" v);
        parse rest
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !paths with
    | [ b; f ] -> (b, f)
    | _ -> die "usage: gate.exe BASELINE.json FRESH.json [--threshold PCT]"
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  let regressions = ref [] in
  List.iter
    (fun (name, (base_ns, _)) ->
      match List.assoc_opt name fresh with
      | None -> Printf.printf "  [gone]    %s (baseline only)\n" name
      | Some (fresh_ns, _) ->
          let delta = 100.0 *. ((fresh_ns /. base_ns) -. 1.0) in
          let tag =
            if delta > !threshold then begin
              regressions := (name, base_ns, fresh_ns, delta) :: !regressions;
              "REGRESSED"
            end
            else if delta < -.(!threshold) then "improved"
            else "ok"
          in
          Printf.printf "  [%-9s] %-45s %10.1f -> %10.1f ns (%+.1f%%)\n" tag
            name base_ns fresh_ns delta)
    baseline;
  List.iter
    (fun (name, _) ->
      if List.assoc_opt name baseline = None then
        Printf.printf "  [new]     %s (fresh only)\n" name)
    fresh;
  match List.rev !regressions with
  | [] ->
      Printf.printf "gate: OK — no case regressed more than %.0f%%\n"
        !threshold
  | rs ->
      Printf.printf "gate: FAIL — %d case(s) regressed more than %.0f%%:\n"
        (List.length rs) !threshold;
      List.iter
        (fun (name, b, f, d) ->
          Printf.printf "  %s: %.1f -> %.1f ns (%+.1f%%)\n" name b f d)
        rs;
      exit 1
