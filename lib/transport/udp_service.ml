open Netsim

type datagram = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  payload : Bytes.t;
  in_iface : Net.iface option;
}

type t = {
  svc_node : Net.node;
  listeners : (int, t -> datagram -> unit) Hashtbl.t;
  mutable next_port : int;
  mutable next_ident : int;
}

let key : t Net.key = Net.new_key ()

let handle_udp t _node in_iface (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Ipv4_packet.Udp u -> (
      match Hashtbl.find_opt t.listeners u.Udp_wire.dst_port with
      | None -> ()
      | Some listener ->
          listener t
            {
              src = pkt.src;
              dst = pkt.dst;
              src_port = u.Udp_wire.src_port;
              dst_port = u.Udp_wire.dst_port;
              payload = u.Udp_wire.payload;
              in_iface;
            })
  | _ -> ()

let get node =
  match Net.local node key with
  | Some t -> t
  | None ->
      let t =
        {
          svc_node = node;
          listeners = Hashtbl.create 8;
          next_port = Well_known.ephemeral_base;
          next_ident = 1;
        }
      in
      Net.set_local node key t;
      Net.set_protocol_handler node Ipv4_packet.P_udp (handle_udp t);
      t

let node t = t.svc_node
let listen t ~port f = Hashtbl.replace t.listeners port f
let unlisten t ~port = Hashtbl.remove t.listeners port

let send t ?src ?via ?l2_dst ?flow ~dst ~src_port ~dst_port payload =
  let src = Option.value src ~default:Ipv4_addr.any in
  let udp = Udp_wire.make ~src_port ~dst_port payload in
  let ident = t.next_ident in
  t.next_ident <- (if ident >= 0xffff then 1 else ident + 1);
  let pkt =
    Ipv4_packet.make ~ident ~protocol:Ipv4_packet.P_udp ~src ~dst
      (Ipv4_packet.Udp udp)
  in
  Net.send t.svc_node ?flow ?via ?l2_dst pkt

let ephemeral_port t =
  let p = t.next_port in
  t.next_port <- (if p >= 65535 then Well_known.ephemeral_base else p + 1);
  p
