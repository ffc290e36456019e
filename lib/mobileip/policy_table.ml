open Netsim

type mode = Optimistic | Pessimistic

let pp_mode fmt m =
  Format.pp_print_string fmt
    (match m with Optimistic -> "optimistic" | Pessimistic -> "pessimistic")

type t = {
  default : mode;
  mutable entries : (Ipv4_addr.Prefix.t * mode) list;  (* most specific first *)
}

let create ?(default = Optimistic) () = { default; entries = [] }

let order (pa, _) (pb, _) =
  Int.compare (Ipv4_addr.Prefix.bits pb) (Ipv4_addr.Prefix.bits pa)

let add_rule t prefix mode =
  t.entries <- List.stable_sort order ((prefix, mode) :: t.entries)

let remove_rule t prefix =
  t.entries <-
    List.filter (fun (p, _) -> not (Ipv4_addr.Prefix.equal p prefix)) t.entries

let mode_for t addr =
  match List.find_opt (fun (p, _) -> Ipv4_addr.Prefix.mem addr p) t.entries with
  | Some (_, m) -> m
  | None -> t.default

let rules t = t.entries

let mode_of_string = function
  | "optimistic" -> Some Optimistic
  | "pessimistic" -> Some Pessimistic
  | _ -> None

let of_string text =
  let strip line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno default entries = function
    | [] ->
        let t = create ?default () in
        List.iter (fun (p, m) -> add_rule t p m) (List.rev entries);
        Ok t
    | raw :: rest -> (
        let line = strip raw in
        if line = "" then go (lineno + 1) default entries rest
        else
          match
            String.split_on_char ' ' line
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun s -> s <> "")
          with
          | [ "default"; m ] -> (
              match (mode_of_string m, default) with
              | Some mode, None -> go (lineno + 1) (Some mode) entries rest
              | Some _, Some _ ->
                  Error (Printf.sprintf "line %d: duplicate default" lineno)
              | None, _ ->
                  Error (Printf.sprintf "line %d: unknown mode %S" lineno m))
          | [ prefix_s; m ] -> (
              match
                (Ipv4_addr.Prefix.of_string_opt prefix_s, mode_of_string m)
              with
              | Some p, Some mode ->
                  go (lineno + 1) default ((p, mode) :: entries) rest
              | None, _ ->
                  Error
                    (Printf.sprintf "line %d: bad prefix %S" lineno prefix_s)
              | _, None ->
                  Error (Printf.sprintf "line %d: unknown mode %S" lineno m))
          | _ ->
              Error
                (Printf.sprintf "line %d: expected \"<prefix>/<len> <mode>\""
                   lineno))
  in
  go 1 None [] lines

let to_string t =
  let buf = Buffer.create 128 in
  List.iter
    (fun (p, m) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n"
           (Ipv4_addr.Prefix.to_string p)
           (match m with Optimistic -> "optimistic" | Pessimistic -> "pessimistic")))
    (List.rev t.entries);
  Buffer.add_string buf
    (Printf.sprintf "default %s\n"
       (match t.default with
       | Optimistic -> "optimistic"
       | Pessimistic -> "pessimistic"));
  Buffer.contents buf
