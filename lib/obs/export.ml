open Netsim

let ( let* ) = Result.bind

(* ---------- hex ---------- *)

let hex_digits = "0123456789abcdef"

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get b i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | _ -> Error (Printf.sprintf "bad hex digit %C" c)
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok out
      else
        let* hi = digit s.[2 * i] in
        let* lo = digit s.[(2 * i) + 1] in
        Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
        go (i + 1)
    in
    go 0

(* ---------- field helpers ---------- *)

let req j name conv =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad field %S" name))

(* ---------- drop reasons ---------- *)

let drop_reason_fields = function
  | Trace.Ingress_filter -> [ ("reason", Json.String "ingress-source-filter") ]
  | Trace.Transit_filter -> [ ("reason", Json.String "transit-filter") ]
  | Trace.Firewall s ->
      [ ("reason", Json.String "firewall"); ("detail", Json.String s) ]
  | Trace.Ttl_expired -> [ ("reason", Json.String "ttl-expired") ]
  | Trace.No_route -> [ ("reason", Json.String "no-route") ]
  | Trace.Mtu_exceeded -> [ ("reason", Json.String "mtu-exceeded") ]
  | Trace.Arp_unresolved -> [ ("reason", Json.String "arp-unresolved") ]
  | Trace.Not_for_me -> [ ("reason", Json.String "not-for-me") ]
  | Trace.Link_down -> [ ("reason", Json.String "link-down") ]
  | Trace.Link_loss -> [ ("reason", Json.String "link-loss") ]
  | Trace.Link_flap -> [ ("reason", Json.String "link-flap") ]
  | Trace.Partitioned -> [ ("reason", Json.String "partitioned") ]
  | Trace.Reassembly_timeout -> [ ("reason", Json.String "reassembly-timeout") ]
  | Trace.Custom s ->
      [ ("reason", Json.String "custom"); ("detail", Json.String s) ]

let drop_reason_of_json j =
  let* reason = req j "reason" Json.get_string in
  let detail () = req j "detail" Json.get_string in
  match reason with
  | "ingress-source-filter" -> Ok Trace.Ingress_filter
  | "transit-filter" -> Ok Trace.Transit_filter
  | "firewall" ->
      let* s = detail () in
      Ok (Trace.Firewall s)
  | "ttl-expired" -> Ok Trace.Ttl_expired
  | "no-route" -> Ok Trace.No_route
  | "mtu-exceeded" -> Ok Trace.Mtu_exceeded
  | "arp-unresolved" -> Ok Trace.Arp_unresolved
  | "not-for-me" -> Ok Trace.Not_for_me
  | "link-down" -> Ok Trace.Link_down
  | "link-loss" -> Ok Trace.Link_loss
  | "link-flap" -> Ok Trace.Link_flap
  | "partitioned" -> Ok Trace.Partitioned
  | "reassembly-timeout" -> Ok Trace.Reassembly_timeout
  | "custom" ->
      let* s = detail () in
      Ok (Trace.Custom s)
  | other -> Error (Printf.sprintf "unknown drop reason %S" other)

(* ---------- frames ---------- *)

let json_of_frame (f : Trace.frame_info) =
  Json.Obj
    [
      ("id", Json.Int f.Trace.id);
      ("flow", Json.Int f.Trace.flow);
      ("src", Json.String (Ipv4_addr.to_string f.Trace.pkt.Ipv4_packet.src));
      ("dst", Json.String (Ipv4_addr.to_string f.Trace.pkt.Ipv4_packet.dst));
      ( "proto",
        Json.Int
          (Ipv4_packet.protocol_to_int f.Trace.pkt.Ipv4_packet.protocol) );
      ("len", Json.Int (Ipv4_packet.byte_length f.Trace.pkt));
      ("pkt", Json.String (hex_of_bytes (Ipv4_packet.encode f.Trace.pkt)));
    ]

let frame_of_json j =
  let* id = req j "id" Json.get_int in
  let* flow = req j "flow" Json.get_int in
  let* hex = req j "pkt" Json.get_string in
  let* wire = bytes_of_hex hex in
  let* pkt = Ipv4_packet.decode wire in
  Ok { Trace.id; flow; pkt }

(* ---------- records ---------- *)

let json_of_record (r : Trace.record) =
  let frame f = ("frame", json_of_frame f) in
  let fields =
    match r.Trace.event with
    | Trace.Send { node; frame = f } ->
        [ ("type", Json.String "send"); ("node", Json.String node); frame f ]
    | Trace.Transmit { link; frame = f; bytes } ->
        [
          ("type", Json.String "transmit");
          ("link", Json.String link);
          ("bytes", Json.Int bytes);
          frame f;
        ]
    | Trace.Forward { node; in_iface; out_iface; frame = f } ->
        [
          ("type", Json.String "forward");
          ("node", Json.String node);
          ("in", Json.String in_iface);
          ("out", Json.String out_iface);
          frame f;
        ]
    | Trace.Drop { node; reason; frame = f } ->
        [ ("type", Json.String "drop"); ("node", Json.String node) ]
        @ drop_reason_fields reason
        @ [ frame f ]
    | Trace.Deliver { node; frame = f } ->
        [ ("type", Json.String "deliver"); ("node", Json.String node); frame f ]
    | Trace.Encapsulate { node; frame = f } ->
        [
          ("type", Json.String "encapsulate");
          ("node", Json.String node);
          frame f;
        ]
    | Trace.Decapsulate { node; frame = f } ->
        [
          ("type", Json.String "decapsulate");
          ("node", Json.String node);
          frame f;
        ]
    | Trace.Icmp_error { node; reason; frame = f } ->
        [ ("type", Json.String "icmp-error"); ("node", Json.String node) ]
        @ drop_reason_fields reason
        @ [ frame f ]
  in
  Json.Obj (("t", Json.Float r.Trace.time) :: fields)

let record_of_json j =
  let* time = req j "t" Json.get_float in
  let* kind = req j "type" Json.get_string in
  let node () = req j "node" Json.get_string in
  let frame () =
    match Json.member "frame" j with
    | None -> Error "missing field \"frame\""
    | Some f -> frame_of_json f
  in
  let* event =
    match kind with
    | "send" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Send { node; frame })
    | "transmit" ->
        let* link = req j "link" Json.get_string in
        let* bytes = req j "bytes" Json.get_int in
        let* frame = frame () in
        Ok (Trace.Transmit { link; frame; bytes })
    | "forward" ->
        let* node = node () in
        let* in_iface = req j "in" Json.get_string in
        let* out_iface = req j "out" Json.get_string in
        let* frame = frame () in
        Ok (Trace.Forward { node; in_iface; out_iface; frame })
    | "drop" ->
        let* node = node () in
        let* reason = drop_reason_of_json j in
        let* frame = frame () in
        Ok (Trace.Drop { node; reason; frame })
    | "deliver" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Deliver { node; frame })
    | "encapsulate" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Encapsulate { node; frame })
    | "decapsulate" ->
        let* node = node () in
        let* frame = frame () in
        Ok (Trace.Decapsulate { node; frame })
    | "icmp-error" ->
        let* node = node () in
        let* reason = drop_reason_of_json j in
        let* frame = frame () in
        Ok (Trace.Icmp_error { node; reason; frame })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok { Trace.time; event }

let line_of_record r = Json.to_string (json_of_record r)

let write_trace_jsonl oc trace =
  let n = ref 0 in
  List.iter
    (fun r ->
      output_string oc (line_of_record r);
      output_char oc '\n';
      incr n)
    (Trace.records trace);
  !n

let read_trace_jsonl ic =
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go acc (lineno + 1)
    | line -> (
        match Json.of_string line with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
            match record_of_json j with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok r -> go (r :: acc) (lineno + 1)))
  in
  go [] 1

let sink_to_channel oc r =
  output_string oc (line_of_record r);
  output_char oc '\n'
