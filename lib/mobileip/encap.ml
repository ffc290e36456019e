open Netsim

type mode = Ipip | Minimal | Gre

let all_modes = [ Ipip; Minimal; Gre ]

let overhead = function
  | Ipip -> Ipv4_packet.ipip_overhead
  | Minimal -> Ipv4_packet.minimal_overhead
  | Gre -> Ipv4_packet.gre_overhead

let mode_to_string = function
  | Ipip -> "ipip"
  | Minimal -> "minimal"
  | Gre -> "gre"

let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

let wrap mode ~src ~dst ?(ttl = 64) ?ident inner =
  let payload, protocol =
    match mode with
    | Ipip -> (Ipv4_packet.Encap inner, Ipv4_packet.P_ipip)
    | Minimal -> (Ipv4_packet.Min_encap inner, Ipv4_packet.P_minimal)
    | Gre -> (Ipv4_packet.Gre_encap inner, Ipv4_packet.P_gre)
  in
  let ident = Option.value ident ~default:inner.Ipv4_packet.ident in
  Ipv4_packet.make ~tos:inner.Ipv4_packet.tos ~ident ~ttl ~protocol ~src ~dst
    payload

let unwrap (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Ipv4_packet.Encap inner -> Some (Ipip, inner)
  | Ipv4_packet.Gre_encap inner -> Some (Gre, inner)
  | Ipv4_packet.Min_encap inner -> Some (Minimal, inner)
  | Ipv4_packet.Raw _ | Ipv4_packet.Udp _ | Ipv4_packet.Tcp _
  | Ipv4_packet.Icmp _ ->
      None

let is_tunnel pkt = unwrap pkt <> None
