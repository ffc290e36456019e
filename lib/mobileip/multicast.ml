open Netsim

let join_via_home ha mh ~group =
  Home_agent.subscribe_multicast ha ~group ~home:(Mobile_host.home_address mh)

let join_locally mh ~iface ~group =
  Net.join_group (Mobile_host.node mh) iface group

let send_stream node ~via ~group ~port ~count ~interval ~payload_size () =
  if not (Ipv4_addr.is_multicast group) then
    invalid_arg "Multicast.send_stream: not a multicast group";
  let udp = Transport.Udp_service.get node in
  let eng = Net.node_engine node in
  let flows = ref [] in
  let rec tick i =
    if i < count then begin
      let flow =
        Transport.Udp_service.send udp ~via ~dst:group ~src_port:port
          ~dst_port:port
          (Bytes.make payload_size 'm')
      in
      flows := flow :: !flows;
      Engine.after eng interval (fun () -> tick (i + 1))
    end
  in
  tick 0;
  fun () -> List.rev !flows

let receive_count node ~port () =
  let udp = Transport.Udp_service.get node in
  let n = ref 0 in
  Transport.Udp_service.listen udp ~port (fun _svc _dgram -> incr n);
  fun () -> !n
