open Netsim

type pending_ping = { ident : int; seq : int; sent_at : float; on_reply : rtt:float -> unit }

type t = {
  svc_node : Net.node;
  mutable pings : pending_ping list;
  mutable next_ident : int;
  mutable care_of_listener :
    (home:Ipv4_addr.t -> care_of:Ipv4_addr.t -> lifetime:int -> unit) option;
  mutable unreachable_listener :
    (code:Icmp_wire.unreach_code ->
    src:Ipv4_addr.t ->
    original:(Ipv4_addr.t * Ipv4_addr.t) option ->
    unit)
    option;
  mutable answered : int;
}

let key : t Net.key = Net.new_key ()

let handle_icmp t node _in_iface (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Ipv4_packet.Icmp msg -> (
      match msg with
      | Icmp_wire.Echo_request { ident; seq; payload } ->
          t.answered <- t.answered + 1;
          let reply = Icmp_wire.Echo_reply { ident; seq; payload } in
          let out =
            Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src:pkt.dst
              ~dst:pkt.src (Ipv4_packet.Icmp reply)
          in
          ignore (Net.send node out)
      | Icmp_wire.Echo_reply { ident; seq; _ } -> (
          match
            List.find_opt (fun p -> p.ident = ident && p.seq = seq) t.pings
          with
          | None -> ()
          | Some p ->
              t.pings <- List.filter (fun q -> q != p) t.pings;
              let now = Net.node_now node in
              p.on_reply ~rtt:(now -. p.sent_at))
      | Icmp_wire.Care_of_advert { home; care_of; lifetime } -> (
          match t.care_of_listener with
          | Some f -> f ~home ~care_of ~lifetime
          | None -> ())
      | Icmp_wire.Dest_unreachable { code; context } -> (
          match t.unreachable_listener with
          | Some f ->
              f ~code ~src:pkt.src
                ~original:(Icmp_wire.context_original context)
          | None -> ())
      | Icmp_wire.Time_exceeded _ -> ())
  | _ -> ()

let get node =
  match Net.local node key with
  | Some t -> t
  | None ->
      let t =
        {
          svc_node = node;
          pings = [];
          next_ident = 1;
          care_of_listener = None;
          unreachable_listener = None;
          answered = 0;
        }
      in
      Net.set_local node key t;
      Net.set_protocol_handler node Ipv4_packet.P_icmp (handle_icmp t);
      t

let node t = t.svc_node

let ping t ?src ?(payload_size = 56) ~dst on_reply =
  let ident = t.next_ident in
  t.next_ident <- t.next_ident + 1;
  let payload = Bytes.make payload_size 'p' in
  let req = Icmp_wire.Echo_request { ident; seq = 1; payload } in
  let src = Option.value src ~default:Ipv4_addr.any in
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src ~dst
      (Ipv4_packet.Icmp req)
  in
  t.pings <-
    { ident; seq = 1; sent_at = Net.node_now t.svc_node; on_reply } :: t.pings;
  ignore (Net.send t.svc_node pkt)

let on_care_of_advert t f = t.care_of_listener <- f
let on_unreachable t f = t.unreachable_listener <- f

let send_care_of_advert t ~src ~dst ~home ~care_of ~lifetime =
  let msg = Icmp_wire.Care_of_advert { home; care_of; lifetime } in
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src ~dst
      (Ipv4_packet.Icmp msg)
  in
  ignore (Net.send t.svc_node pkt)

let echo_requests_answered t = t.answered
