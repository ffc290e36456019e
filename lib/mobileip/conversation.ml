open Netsim

type udp_result = {
  cell : Grid.cell;
  requests_sent : int;
  requests_delivered : int;
  replies_sent : int;
  replies_delivered : int;
  transport_consistent : bool;
  request_hops : int;
  reply_hops : int;
  request_wire_bytes : int;
  reply_wire_bytes : int;
  request_latency : float option;
  reply_latency : float option;
}

let out_uses_home = function
  | Grid.Out_IE | Grid.Out_DE | Grid.Out_DH -> true
  | Grid.Out_DT -> false

let require_coa mh =
  match Mobile_host.care_of_address mh with
  | Some c -> c
  | None -> invalid_arg "Conversation: the mobile host must be away from home"

let configure ~mh ~ch ~ch_addr ~(cell : Grid.cell) =
  let home = Mobile_host.home_address mh in
  let coa = require_coa mh in
  Correspondent.learn_binding ch ~home ~care_of:coa ~lifetime:3600;
  Correspondent.force_in_method ch ~dst:home (Some cell.Grid.incoming);
  (match cell.Grid.outgoing with
  | Grid.Out_DT ->
      (* An application decision: the MH sources from its temporary
         address; the policy machinery is bypassed, not configured. *)
      Mobile_host.pin_method mh ~dst:ch_addr None
  | m -> Mobile_host.pin_method mh ~dst:ch_addr (Some m));
  (home, coa)

let deconfigure ~mh ~ch ~ch_addr =
  let home = Mobile_host.home_address mh in
  Correspondent.force_in_method ch ~dst:home None;
  Mobile_host.pin_method mh ~dst:ch_addr None

let flow_metrics net ~flow ~target =
  let trace = Net.trace net in
  let hops = Trace.transmissions trace ~flow in
  let bytes = Trace.wire_bytes trace ~flow in
  let latency =
    match (Trace.send_time trace ~flow, Trace.delivery_time trace ~flow ~node:target) with
    | Some t0, Some t1 -> Some (t1 -. t0)
    | _ -> None
  in
  (hops, bytes, latency)

let run_udp ~net ~mh ~ch ~ch_addr ~cell () =
  let requests = 3 and port = 7 in
  let home, coa = configure ~mh ~ch ~ch_addr ~cell in
  let req_src = if out_uses_home cell.Grid.outgoing then home else coa in
  let mh_node = Mobile_host.node mh in
  let ch_node = Correspondent.node ch in
  let mh_udp = Transport.Udp_service.get mh_node in
  let ch_udp = Transport.Udp_service.get ch_node in
  let mh_port = Transport.Udp_service.ephemeral_port mh_udp in
  let requests_delivered = ref 0 in
  let reply_flows = ref [] in
  let replies_delivered = ref 0 in
  let reply_dsts = ref [] in
  (* The correspondent application answers to the address the incoming
     method is defined for: the permanent home address (the forced In-DT
     method rewrites it to the temporary address on the way out). *)
  Transport.Udp_service.listen ch_udp ~port (fun svc dgram ->
      incr requests_delivered;
      let flow =
        Transport.Udp_service.send svc ~src:ch_addr ~dst:home ~src_port:port
          ~dst_port:dgram.Transport.Udp_service.src_port
          dgram.Transport.Udp_service.payload
      in
      reply_flows := flow :: !reply_flows);
  Transport.Udp_service.listen mh_udp ~port:mh_port (fun _svc dgram ->
      incr replies_delivered;
      reply_dsts := dgram.Transport.Udp_service.dst :: !reply_dsts);
  let req_flows = ref [] in
  let eng = Net.node_engine mh_node in
  let rec send_request i =
    if i < requests then begin
      let flow =
        Transport.Udp_service.send mh_udp ~src:req_src ~dst:ch_addr
          ~src_port:mh_port ~dst_port:port
          (Bytes.make 64 'q')
      in
      req_flows := flow :: !req_flows;
      Engine.after eng 0.25 (fun () -> send_request (i + 1))
    end
  in
  send_request 0;
  Net.run net;
  let transport_consistent =
    !replies_delivered > 0
    && List.for_all (Ipv4_addr.equal req_src) !reply_dsts
  in
  let request_hops, request_wire_bytes, request_latency =
    match !req_flows with
    | flow :: _ -> flow_metrics net ~flow ~target:(Net.node_name ch_node)
    | [] -> (0, 0, None)
  in
  let reply_hops, reply_wire_bytes, reply_latency =
    match !reply_flows with
    | flow :: _ -> flow_metrics net ~flow ~target:(Net.node_name mh_node)
    | [] -> (0, 0, None)
  in
  deconfigure ~mh ~ch ~ch_addr;
  {
    cell;
    requests_sent = requests;
    requests_delivered = !requests_delivered;
    replies_sent = List.length !reply_flows;
    replies_delivered = !replies_delivered;
    transport_consistent;
    request_hops;
    reply_hops;
    request_wire_bytes;
    reply_wire_bytes;
    request_latency;
    reply_latency;
  }

type tcp_result = {
  t_cell : Grid.cell;
  connected : bool;
  echoed : bool;
  final_state : Transport.Tcp.state;
  client_retransmissions : int;
}

let run_tcp ~net ~mh ~ch ~ch_addr ~cell () =
  let port = 8080 in
  let home, coa = configure ~mh ~ch ~ch_addr ~cell in
  let src = if out_uses_home cell.Grid.outgoing then home else coa in
  let mh_node = Mobile_host.node mh in
  let ch_node = Correspondent.node ch in
  let mh_tcp = Transport.Tcp.get mh_node in
  let ch_tcp = Transport.Tcp.get ch_node in
  Transport.Tcp.listen ch_tcp ~port (fun conn ->
      Transport.Tcp.on_receive conn (fun data ->
          Transport.Tcp.send_data conn data;
          Transport.Tcp.close conn));
  let connected = ref false in
  let echoed = ref false in
  let conn =
    Transport.Tcp.connect mh_tcp ~src ~dst:ch_addr ~dst_port:port ()
  in
  Transport.Tcp.on_state_change conn (fun st ->
      if st = Transport.Tcp.Established then connected := true);
  Transport.Tcp.on_receive conn (fun _data ->
      echoed := true;
      Transport.Tcp.close conn);
  Transport.Tcp.send_data conn (Bytes.of_string "grid-cell-probe");
  Net.run net;
  Transport.Tcp.unlisten ch_tcp ~port;
  deconfigure ~mh ~ch ~ch_addr;
  {
    t_cell = cell;
    connected = !connected;
    echoed = !echoed;
    final_state = Transport.Tcp.state conn;
    client_retransmissions = Transport.Tcp.retransmissions conn;
  }
