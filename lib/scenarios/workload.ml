open Netsim

type tcp_session_stats = {
  established : bool;
  messages_echoed : int;
  client_retransmissions : int;
  final_state : Transport.Tcp.state;
  elapsed : float;
}

let tcp_echo_server node ~port =
  let tcp = Transport.Tcp.get node in
  Transport.Tcp.listen tcp ~port (fun conn ->
      Transport.Tcp.on_receive conn (fun data ->
          Transport.Tcp.send_data conn data))

let tcp_echo_session ~net ~client ~server_addr ~port ?src ?(messages = 5)
    ?(spacing = 0.5) ?(message_size = 120) () =
  let tcp = Transport.Tcp.get client in
  let t0 = Net.now net in
  let conn = Transport.Tcp.connect tcp ?src ~dst:server_addr ~dst_port:port () in
  let echoed = ref 0 in
  let established = ref false in
  Transport.Tcp.on_state_change conn (fun st ->
      if st = Transport.Tcp.Established then established := true);
  Transport.Tcp.on_receive conn (fun _data -> incr echoed);
  let eng = Net.engine net in
  let rec send_message i =
    if i < messages && Transport.Tcp.state conn <> Transport.Tcp.Aborted then begin
      Transport.Tcp.send_data conn (Bytes.make message_size 'k');
      Engine.after eng spacing (fun () -> send_message (i + 1))
    end
  in
  send_message 0;
  Net.run net;
  {
    established = !established;
    messages_echoed = !echoed;
    client_retransmissions = Transport.Tcp.retransmissions conn;
    final_state = Transport.Tcp.state conn;
    elapsed = Net.now net -. t0;
  }

let install_http_server node () =
  let tcp = Transport.Tcp.get node in
  (* Web servers pipeline: a window of 4 segments (see Transport.Tcp). *)
  Transport.Tcp.listen tcp ~window:4 ~port:Transport.Well_known.http (fun conn ->
      Transport.Tcp.on_receive conn (fun _request ->
          Transport.Tcp.send_data conn (Bytes.make 2048 'w');
          Transport.Tcp.close conn))

let http_fetch ~net ~client ~server_addr ?src () =
  let tcp = Transport.Tcp.get client in
  let t0 = Net.now net in
  let conn =
    Transport.Tcp.connect tcp ?src ~window:4 ~dst:server_addr
      ~dst_port:Transport.Well_known.http ()
  in
  let got = ref 0 in
  let closed = ref false in
  Transport.Tcp.on_receive conn (fun data -> got := !got + Bytes.length data);
  Transport.Tcp.on_state_change conn (fun st ->
      match st with
      | Transport.Tcp.Close_wait ->
          Transport.Tcp.close conn;
          closed := true
      | _ -> ());
  Transport.Tcp.send_data conn (Bytes.of_string "GET / HTTP/1.0\r\n\r\n");
  Net.run net;
  (!got > 0, Net.now net -. t0)

let udp_request_response ~net ~client ~server ~server_addr ~port ?src () =
  let server_udp = Transport.Udp_service.get server in
  Transport.Udp_service.listen server_udp ~port (fun svc dgram ->
      ignore
        (Transport.Udp_service.send svc ~src:dgram.Transport.Udp_service.dst
           ~dst:dgram.Transport.Udp_service.src ~src_port:port
           ~dst_port:dgram.Transport.Udp_service.src_port
           (Bytes.make 256 'r')));
  let client_udp = Transport.Udp_service.get client in
  let my_port = Transport.Udp_service.ephemeral_port client_udp in
  let t0 = Net.now net in
  let answered = ref false in
  let rtt = ref 0.0 in
  Transport.Udp_service.listen client_udp ~port:my_port (fun _svc _dgram ->
      answered := true;
      rtt := Net.now net -. t0);
  ignore
    (Transport.Udp_service.send client_udp ?src ~dst:server_addr
       ~src_port:my_port ~dst_port:port
       (Bytes.make 64 'q'));
  Net.run net;
  (!answered, !rtt)
