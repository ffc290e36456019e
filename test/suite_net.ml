(* Smoke tests for the data plane: topology, ARP, forwarding, filtering,
   TCP and UDP end to end, DHCP. *)

open Netsim

let addr = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

(* Two hosts on one segment. *)
let two_host_segment () =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let b = Net.add_host net "b" in
  let seg = Net.add_segment net ~name:"lan" () in
  let ia = Net.attach a seg ~ifname:"eth0" ~addr:(addr "10.0.0.1") ~prefix:(prefix "10.0.0.0/24") in
  let ib = Net.attach b seg ~ifname:"eth0" ~addr:(addr "10.0.0.2") ~prefix:(prefix "10.0.0.0/24") in
  (net, a, b, ia, ib)

(* a --- r --- b over p2p links. *)
let routed_triangle () =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let r = Net.add_router net "r" in
  let b = Net.add_host net "b" in
  let _ =
    Net.p2p net ~prefix:(prefix "10.1.0.0/30")
      (a, "if0", addr "10.1.0.1")
      (r, "if0", addr "10.1.0.2")
  in
  let _ =
    Net.p2p net ~prefix:(prefix "10.2.0.0/30")
      (r, "if1", addr "10.2.0.1")
      (b, "if0", addr "10.2.0.2")
  in
  Routing.add_default (Net.routing a) ~gateway:(addr "10.1.0.2") ~iface:"if0";
  Routing.add_default (Net.routing b) ~gateway:(addr "10.2.0.1") ~iface:"if0";
  (net, a, r, b)

let test_ping_same_segment () =
  let net, a, b, _, _ = two_host_segment () in
  let icmp_a = Transport.Icmp_service.get a in
  let (_ : Transport.Icmp_service.t) = Transport.Icmp_service.get b in
  let got = ref None in
  Transport.Icmp_service.ping icmp_a ~dst:(addr "10.0.0.2") (fun ~rtt ->
      got := Some rtt);
  Net.run net;
  match !got with
  | None -> Alcotest.fail "no ping reply"
  | Some rtt -> Alcotest.(check bool) "rtt positive" true (rtt > 0.0)

let test_ping_routed () =
  let net, a, _r, b = routed_triangle () in
  let icmp_a = Transport.Icmp_service.get a in
  let (_ : Transport.Icmp_service.t) = Transport.Icmp_service.get b in
  let got = ref None in
  Transport.Icmp_service.ping icmp_a ~dst:(addr "10.2.0.2") (fun ~rtt ->
      got := Some rtt);
  Net.run net;
  Alcotest.(check bool) "reply received" true (!got <> None)

let test_arp_populated () =
  let net, a, _b, _, _ = two_host_segment () in
  let icmp_a = Transport.Icmp_service.get a in
  Transport.Icmp_service.ping icmp_a ~dst:(addr "10.0.0.2") (fun ~rtt:_ -> ());
  Net.run net;
  Alcotest.(check bool)
    "a resolved b's MAC" true
    (Net.arp_lookup a (addr "10.0.0.2") <> None)

let test_ingress_filter_drops () =
  let net, a, r, _b = routed_triangle () in
  (* r treats if1 side (10.2/16) as its inside; a packet arriving on if0
     (outside) claiming an inside source must be dropped. *)
  Net.set_filter r
    (Filter.of_rules
       [
         Filter.ingress_source_filter ~external_iface:"if0"
           ~inside:[ prefix "10.2.0.0/16" ];
       ]);
  let spoofed =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(addr "10.2.0.99")
      ~dst:(addr "10.2.0.2")
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.create 4)))
  in
  let flow = Net.send a spoofed in
  Net.run net;
  let drops = Trace.drops (Net.trace net) ~flow in
  Alcotest.(check bool) "dropped at r" true
    (List.exists
       (fun (n, reason) ->
         n = "r" && Trace.drop_reason_equal reason Trace.Ingress_filter)
       drops);
  Alcotest.(check bool) "not delivered" false
    (Trace.delivered (Net.trace net) ~flow ~node:"b")

let test_ttl_expiry () =
  let net, a, _r, _b = routed_triangle () in
  let pkt =
    Ipv4_packet.make ~ttl:1 ~protocol:Ipv4_packet.P_udp ~src:(addr "10.1.0.1")
      ~dst:(addr "10.2.0.2")
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 Bytes.empty))
  in
  let flow = Net.send a pkt in
  Net.run net;
  let drops = Trace.drops (Net.trace net) ~flow in
  Alcotest.(check bool) "ttl expired at router" true
    (List.exists
       (fun (n, reason) ->
         n = "r" && Trace.drop_reason_equal reason Trace.Ttl_expired)
       drops)

let test_udp_end_to_end () =
  let net, a, _r, b = routed_triangle () in
  let ua = Transport.Udp_service.get a in
  let ub = Transport.Udp_service.get b in
  let received = ref [] in
  Transport.Udp_service.listen ub ~port:7 (fun svc dgram ->
      received := Bytes.to_string dgram.Transport.Udp_service.payload :: !received;
      (* echo it back *)
      ignore
        (Transport.Udp_service.send svc ~src:dgram.Transport.Udp_service.dst
           ~dst:dgram.Transport.Udp_service.src ~src_port:7
           ~dst_port:dgram.Transport.Udp_service.src_port
           dgram.Transport.Udp_service.payload));
  let echoed = ref None in
  Transport.Udp_service.listen ua ~port:5000 (fun _svc dgram ->
      echoed := Some (Bytes.to_string dgram.Transport.Udp_service.payload));
  ignore
    (Transport.Udp_service.send ua ~dst:(addr "10.2.0.2") ~src_port:5000
       ~dst_port:7
       (Bytes.of_string "hello"));
  Net.run net;
  Alcotest.(check (list string)) "server got it" [ "hello" ] !received;
  Alcotest.(check (option string)) "echo returned" (Some "hello") !echoed

let test_tcp_end_to_end () =
  let net, a, _r, b = routed_triangle () in
  let ta = Transport.Tcp.get a in
  let tb = Transport.Tcp.get b in
  let server_got = Buffer.create 64 in
  Transport.Tcp.listen tb ~port:80 (fun conn ->
      Transport.Tcp.on_receive conn (fun data ->
          Buffer.add_bytes server_got data;
          Transport.Tcp.send_data conn (Bytes.of_string "response");
          Transport.Tcp.close conn));
  let client_got = Buffer.create 64 in
  let conn =
    Transport.Tcp.connect ta ~dst:(addr "10.2.0.2") ~dst_port:80 ()
  in
  Transport.Tcp.on_receive conn (fun data -> Buffer.add_bytes client_got data);
  Transport.Tcp.send_data conn (Bytes.of_string "request");
  Net.run net;
  Alcotest.(check string) "server received" "request" (Buffer.contents server_got);
  Alcotest.(check string) "client received" "response" (Buffer.contents client_got);
  Alcotest.(check int) "no retransmissions" 0 (Transport.Tcp.retransmissions conn)

let test_tcp_large_transfer_segments () =
  let net, a, _r, b = routed_triangle () in
  let ta = Transport.Tcp.get a in
  let tb = Transport.Tcp.get b in
  let total = 5000 in
  let server_got = Buffer.create total in
  Transport.Tcp.listen tb ~port:80 (fun conn ->
      Transport.Tcp.on_receive conn (fun data -> Buffer.add_bytes server_got data));
  let conn = Transport.Tcp.connect ta ~dst:(addr "10.2.0.2") ~dst_port:80 () in
  Transport.Tcp.send_data conn (Bytes.make total 'x');
  Net.run net;
  Alcotest.(check int) "all bytes arrived" total (Buffer.length server_got)

let test_tcp_aborts_when_path_dies () =
  let net, a, r, b = routed_triangle () in
  let ta = Transport.Tcp.get a in
  let tb = Transport.Tcp.get b in
  Transport.Tcp.listen tb ~port:80 (fun _conn -> ());
  let conn = Transport.Tcp.connect ta ~dst:(addr "10.2.0.2") ~dst_port:80 () in
  (* Let the handshake complete, then kill the path and send. *)
  Net.run net;
  Alcotest.(check bool) "established" true
    (Transport.Tcp.state conn = Transport.Tcp.Established);
  Routing.clear (Net.routing r);
  Transport.Tcp.send_data conn (Bytes.of_string "doomed");
  Net.run net;
  Alcotest.(check bool) "aborted after retries" true
    (Transport.Tcp.state conn = Transport.Tcp.Aborted);
  Alcotest.(check int) "max retries used" Transport.Tcp.max_retries
    (Transport.Tcp.retransmissions conn)

let test_dhcp_lease () =
  let net = Net.create () in
  let server = Net.add_host net "dhcpd" in
  let client = Net.add_host net "mh" in
  let seg = Net.add_segment net ~name:"visited" () in
  let _ =
    Net.attach server seg ~ifname:"eth0" ~addr:(addr "192.168.1.1")
      ~prefix:(prefix "192.168.1.0/24")
  in
  let ic =
    Net.attach client seg ~ifname:"eth0" ~addr:Ipv4_addr.any
      ~prefix:(prefix "192.168.1.0/24")
  in
  let _server =
    Transport.Dhcp.Server.create server ~pool:(prefix "192.168.1.0/24")
      ~first_host:100 ~last_host:200 ~gateway:(addr "192.168.1.1") ()
  in
  let got = ref None in
  Transport.Dhcp.Client.request client ~via:ic (fun offer -> got := Some offer);
  Net.run net;
  match !got with
  | None -> Alcotest.fail "no DHCP offer"
  | Some offer ->
      Alcotest.(check string) "address from pool" "192.168.1.100"
        (Ipv4_addr.to_string offer.Transport.Dhcp.Client.addr)

(* An ACK whose prefix length no address has (40) reaches the requesting
   client before the server's ACK: the client ignores it, as it ignores
   any ACK it cannot use, and takes the server's lease. *)
let test_dhcp_bad_prefix_ack_ignored () =
  let net = Net.create () in
  let server = Net.add_host net "dhcpd" in
  let rogue = Net.add_host net "rogue" in
  let client = Net.add_host net "mh" in
  let seg = Net.add_segment net ~name:"visited" () in
  let lan = prefix "192.168.1.0/24" in
  let _ =
    Net.attach server seg ~ifname:"eth0" ~addr:(addr "192.168.1.1") ~prefix:lan
  in
  let ir =
    Net.attach rogue seg ~ifname:"eth0" ~addr:(addr "192.168.1.9") ~prefix:lan
  in
  let ic =
    Net.attach client seg ~ifname:"eth0" ~addr:Ipv4_addr.any ~prefix:lan
  in
  let _server =
    Transport.Dhcp.Server.create server ~pool:lan ~first_host:100
      ~last_host:200 ~gateway:(addr "192.168.1.1") ()
  in
  let offers = ref [] in
  Transport.Dhcp.Client.request client ~via:ic (fun offer ->
      offers := (Net.node_now client, offer) :: !offers);
  let ack = Bytes.make 18 '\000' in
  Bytes.set ack 0 '\002';
  Mac_addr.write ack 1 (Option.get (Net.iface_mac ic));
  Ipv4_addr.write ack 7 (addr "192.168.1.66");
  Bytes.set ack 11 (Char.chr 40);
  Ipv4_addr.write ack 12 (addr "192.168.1.9");
  Bytes.set_uint16_be ack 16 3600;
  let bad =
    Transport.Udp_service.send (Transport.Udp_service.get rogue) ~via:ir
      ~dst:Ipv4_addr.broadcast ~src_port:Transport.Well_known.dhcp_server
      ~dst_port:Transport.Well_known.dhcp_client ack
  in
  Net.run net;
  match (!offers, Trace.delivery_time (Net.trace net) ~flow:bad ~node:"mh") with
  | [ (taken_at, offer) ], Some bad_at ->
      Alcotest.(check bool) "the bad ACK came first" true (bad_at < taken_at);
      Alcotest.(check string) "the server's address" "192.168.1.100"
        (Ipv4_addr.to_string offer.Transport.Dhcp.Client.addr);
      Alcotest.(check int) "the server's prefix length" 24
        (Ipv4_addr.Prefix.bits offer.Transport.Dhcp.Client.prefix)
  | offers, bad_at ->
      Alcotest.failf "%d offers taken; bad ACK delivered: %b"
        (List.length offers) (bad_at <> None)

let test_fragmentation_on_path () =
  (* A p2p link with a small MTU forces fragmentation; the far host must
     reassemble and deliver the whole datagram once. *)
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let b = Net.add_host net "b" in
  let _ =
    Net.p2p net ~mtu:600 ~prefix:(prefix "10.9.0.0/30")
      (a, "if0", addr "10.9.0.1")
      (b, "if0", addr "10.9.0.2")
  in
  let ua = Transport.Udp_service.get a in
  let ub = Transport.Udp_service.get b in
  let sizes = ref [] in
  Transport.Udp_service.listen ub ~port:9 (fun _svc dgram ->
      sizes := Bytes.length dgram.Transport.Udp_service.payload :: !sizes);
  ignore
    (Transport.Udp_service.send ua ~dst:(addr "10.9.0.2") ~src_port:5001
       ~dst_port:9 (Bytes.make 1400 'z'));
  Net.run net;
  Alcotest.(check (list int)) "reassembled exactly once" [ 1400 ] !sizes

(* A fragment that arrives after the reassembly timeout must not complete
   its datagram: the partial it belonged to has been dropped.  A 3 000-byte
   datagram leaves [a] as three fragments; the fault hook holds back the
   second by [delay] seconds. *)
let late_fragment_delivery ~delay =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let b = Net.add_host net "b" in
  let _ =
    Net.p2p net ~prefix:(prefix "10.9.0.0/30")
      (a, "if0", addr "10.9.0.1")
      (b, "if0", addr "10.9.0.2")
  in
  let frames = ref 0 in
  Net.set_fault_hook net
    (Some
       (fun ~link:_ ~src:_ ~dst:_ ->
         incr frames;
         if !frames = 2 then
           Net.Fault_deliver { extra_delay = delay; duplicate = false }
         else Net.Fault_pass));
  let ub = Transport.Udp_service.get b in
  let sizes = ref [] in
  Transport.Udp_service.listen ub ~port:9 (fun _svc dgram ->
      sizes := Bytes.length dgram.Transport.Udp_service.payload :: !sizes);
  ignore
    (Transport.Udp_service.send (Transport.Udp_service.get a)
       ~dst:(addr "10.9.0.2") ~src_port:5001 ~dst_port:9 (Bytes.make 3000 'z'));
  Net.run net;
  Alcotest.(check int) "three fragments" 3 !frames;
  !sizes

let test_late_fragment_expires () =
  Alcotest.(check (list int)) "150 s late: dropped" []
    (late_fragment_delivery ~delay:150.0);
  Alcotest.(check (list int)) "1 s late: reassembled" [ 3000 ]
    (late_fragment_delivery ~delay:1.0)

(* Names are indexed, so adding a host scans no list; the index must agree
   with the insertion-ordered node list. *)
let test_node_index () =
  let net = Net.create () in
  let n = 4096 in
  let hosts = List.init n (fun i -> Net.add_host net ("h" ^ string_of_int i)) in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Net: node \"h17\" already exists") (fun () ->
      ignore (Net.add_router net "h17"));
  let finds name node =
    match Net.find_node net name with Some n -> n == node | None -> false
  in
  Alcotest.(check bool) "first" true (finds "h0" (List.hd hosts));
  Alcotest.(check bool) "last" true
    (finds "h4095" (List.nth hosts (n - 1)));
  Alcotest.(check bool) "missing" true (Net.find_node net "h4096" = None);
  Alcotest.(check (list string)) "insertion order"
    (List.map Net.node_name hosts)
    (List.map Net.node_name (Net.nodes net))

let test_same_segment_predicate () =
  let _net, a, b, _, _ = two_host_segment () in
  Alcotest.(check bool) "same segment" true (Net.same_segment a b)

let test_l2_direct_delivery () =
  (* In-DH primitive: deliver an IP packet whose destination address does
     not belong to the segment, by addressing the link-layer frame
     directly. *)
  let net, a, b, _ia, ib = two_host_segment () in
  let home = addr "36.1.0.5" in
  Net.claim_address b home;
  let mac_b =
    match Net.iface_mac ib with Some m -> m | None -> Alcotest.fail "mac"
  in
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(addr "10.0.0.1")
      ~dst:home
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 Bytes.empty))
  in
  let via = match Net.find_iface a "eth0" with Some i -> i | None -> assert false in
  let flow = Net.send a ~via ~l2_dst:mac_b pkt in
  Net.run net;
  Alcotest.(check bool) "delivered to b despite foreign address" true
    (Trace.delivered (Net.trace net) ~flow ~node:"b")

(* Addr_map: the flat int-keyed table behind ARP caches and protocol
   handler lookup. *)

let prop_addr_map_matches_hashtbl =
  QCheck.Test.make ~name:"Addr_map behaves like Hashtbl" ~count:200
    QCheck.(list (pair (int_bound 500) (option (int_bound 100))))
    (fun ops ->
      let m = Addr_map.create () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          match v with
          | Some v ->
              Addr_map.replace m k v;
              Hashtbl.replace h k v
          | None ->
              Addr_map.remove m k;
              Hashtbl.remove h k)
        ops;
      Addr_map.length m = Hashtbl.length h
      && List.for_all
           (fun k -> Addr_map.find m k = Hashtbl.find_opt h k)
           (List.init 501 Fun.id))

let test_addr_map_addr_keys () =
  let m = Addr_map.create () in
  let a = Ipv4_addr.of_string "131.7.0.22" in
  Addr_map.replace m (Addr_map.of_addr a) "mh";
  Alcotest.(check (option string))
    "address round-trips" (Some "mh")
    (Addr_map.find m (Addr_map.of_addr a));
  (* colliding keys survive a backward-shift deletion in between *)
  let cap = 16 in (* capacity at four keys: keys differing by it collide *)
  Addr_map.replace m 3 "x";
  Addr_map.replace m (3 + cap) "y";
  Addr_map.replace m (3 + (2 * cap)) "z";
  Addr_map.remove m (3 + cap);
  Alcotest.(check (option string)) "head survives" (Some "x")
    (Addr_map.find m 3);
  Alcotest.(check (option string)) "tail shifted back" (Some "z")
    (Addr_map.find m (3 + (2 * cap)))

(* a -- r1 -- ... -- rn -- b over p2p links, tracing off; every node's
   default route points one link further towards b. *)
let router_chain n =
  let net = Net.create () in
  Net.set_tracing net false;
  let nodes =
    Array.init (n + 2) (fun i ->
        if i = 0 then Net.add_host net "a"
        else if i = n + 1 then Net.add_host net "b"
        else Net.add_router net (Printf.sprintf "r%d" i))
  in
  for i = 0 to n do
    let near = Ipv4_addr.of_octets 10 0 i 1 in
    let far = Ipv4_addr.of_octets 10 0 i 2 in
    ignore
      (Net.p2p net ~prefix:(Ipv4_addr.Prefix.make near 30)
         (nodes.(i), "up", near)
         (nodes.(i + 1), "down", far));
    Routing.add_default (Net.routing nodes.(i)) ~gateway:far ~iface:"up"
  done;
  (net, nodes.(0), nodes.(n + 1), Ipv4_addr.of_octets 10 0 n 2)

(* Minor words one 512-byte UDP datagram costs across a chain of [n]
   routers, from [Net.send] to its delivery at b. *)
let words_per_datagram n =
  let net, a, b, dst = router_chain n in
  let delivered = ref 0 in
  Net.set_delivery_observer b (Some (fun _ -> incr delivered));
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_udp
      ~src:(Ipv4_addr.of_octets 10 0 0 1) ~dst
      (Ipv4_packet.Udp
         (Udp_wire.make ~src_port:7 ~dst_port:9 (Bytes.make 512 'u')))
  in
  let send () =
    ignore (Net.send a pkt);
    Net.run net
  in
  send () (* fills the route caches *);
  let runs = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    send ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every datagram delivered" (runs + 1) !delivered;
  words /. float_of_int runs

(* A forwarded, untraced, unfragmented packet allocates its new packet
   (the TTL), its frame and its delivery event, and little else: the
   difference between a 9-router and a 1-router chain, per router. *)
let test_hop_allocation () =
  let per_hop = (words_per_datagram 9 -. words_per_datagram 1) /. 8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 45 words per router hop (%.1f)" per_hop)
    true (per_hop <= 45.0)

(* A link's delay terms are checked when the link is made.  A bad
   latency used to surface only as the engine's error from inside the
   first frame's emit, and a bad bandwidth as an unlimited one. *)
let test_bad_link_parameters () =
  let net = Net.create () in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let segment ?latency ?bandwidth () =
    Net.add_segment net ~name:"lan" ?latency ?bandwidth ()
  in
  let p2p ?latency ?bandwidth () =
    Net.p2p net ?latency ?bandwidth ~prefix:(prefix "10.9.0.0/30")
      (a, "if0", addr "10.9.0.1")
      (b, "if0", addr "10.9.0.2")
  in
  raises {|Net: link "lan": latency must be >= 0 (got -0.001)|}
    (segment ~latency:(-0.001));
  raises {|Net: link "lan": latency must be >= 0 (got nan)|}
    (segment ~latency:Float.nan);
  raises {|Net: link "lan": bandwidth must be > 0 (got 0)|}
    (segment ~bandwidth:0.0);
  raises {|Net: link "lan": bandwidth must be > 0 (got nan)|}
    (segment ~bandwidth:Float.nan);
  raises {|Net: link "a<->b": latency must be >= 0 (got -1)|}
    (p2p ~latency:(-1.0));
  raises {|Net: link "a<->b": latency must be >= 0 (got nan)|}
    (p2p ~latency:Float.nan);
  raises {|Net: link "a<->b": bandwidth must be > 0 (got -9600)|}
    (p2p ~bandwidth:(-9600.0));
  raises {|Net: link "a<->b": bandwidth must be > 0 (got nan)|}
    (p2p ~bandwidth:Float.nan);
  (* A rejected p2p link leaves both nodes without the interface, so
     the same names still work. *)
  let _ = p2p ~latency:0.0 ~bandwidth:9600.0 () in
  ignore (segment ~latency:0.0 ());
  Alcotest.(check int) "one interface each" 1
    (List.length (Net.ifaces a))

(* ---------- the length a frame carries ---------- *)

let udp_packet ?options ~src ~dst size =
  Ipv4_packet.make ?options ~protocol:Ipv4_packet.P_udp ~src ~dst
    (Ipv4_packet.Udp
       (Udp_wire.make ~src_port:5001 ~dst_port:9 (Bytes.make size 'l')))

(* What a transmitted packet is: a fragment, a source-routed packet, a
   tunnel by its encapsulation, else its transport. *)
let packet_kind (pkt : Ipv4_packet.t) =
  if Ipv4_packet.is_fragment pkt then "fragment"
  else if Ipv4_options.has_options pkt.Ipv4_packet.options then "lsr"
  else
    match pkt.Ipv4_packet.payload with
    | Ipv4_packet.Udp _ -> "udp"
    | Ipv4_packet.Tcp _ -> "tcp"
    | Ipv4_packet.Icmp _ -> "icmp"
    | Ipv4_packet.Encap _ -> "ipip"
    | Ipv4_packet.Gre_encap _ -> "gre"
    | Ipv4_packet.Min_encap _ -> "minimal"
    | Ipv4_packet.Raw _ -> "raw"

(* Every Transmit record in [net]'s log carries its packet's length; the
   kinds of packet transmitted. *)
let transmitted_kinds net =
  List.filter_map
    (fun r ->
      match r.Trace.event with
      | Trace.Transmit { link; frame; bytes } ->
          let pkt = frame.Trace.pkt in
          Alcotest.(check int)
            (Printf.sprintf "frame %d on %s: bytes" frame.Trace.id link)
            (Ipv4_packet.byte_length pkt) bytes;
          Some (packet_kind pkt)
      | _ -> None)
    (Trace.records (Net.trace net))

(* UDP, TCP and ICMP from [a] to [b], each forwarded by [r]. *)
let originated_and_forwarded () =
  let net, a, _r, b = routed_triangle () in
  Transport.Tcp.listen (Transport.Tcp.get b) ~port:80 (fun conn ->
      Transport.Tcp.on_receive conn (fun _ -> Transport.Tcp.close conn));
  let conn =
    Transport.Tcp.connect (Transport.Tcp.get a) ~dst:(addr "10.2.0.2")
      ~dst_port:80 ()
  in
  Transport.Tcp.send_data conn (Bytes.make 700 't');
  let (_ : Transport.Icmp_service.t) = Transport.Icmp_service.get b in
  Transport.Icmp_service.ping (Transport.Icmp_service.get a)
    ~dst:(addr "10.2.0.2") (fun ~rtt:_ -> ());
  ignore
    (Net.send a (udp_packet ~src:(addr "10.1.0.1") ~dst:(addr "10.2.0.2") 300));
  Net.run net;
  net

(* The first datagram to a neighbour waits on ARP and leaves only when
   the reply arrives. *)
let parked_on_arp () =
  let net, a, _b, _, _ = two_host_segment () in
  let flow =
    Net.send a (udp_packet ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2") 200)
  in
  Net.run net;
  let sent = Option.get (Trace.send_time (Net.trace net) ~flow) in
  List.iter
    (fun r ->
      match r.Trace.event with
      | Trace.Transmit _ ->
          Alcotest.(check bool) "left after the ARP exchange" true
            (r.Trace.time > sent)
      | _ -> ())
    (Trace.flow_records (Net.trace net) ~flow);
  net

(* A2's worlds: the home agent tunnels a correspondent's datagram to the
   roamed host in each encapsulation. *)
let tunnelled mode =
  let topo = Scenarios.Topo.build ~encap:mode () in
  Scenarios.Topo.roam topo ();
  let net = topo.Scenarios.Topo.net in
  ignore
    (Transport.Udp_service.send
       (Transport.Udp_service.get topo.Scenarios.Topo.ch_node)
       ~dst:topo.Scenarios.Topo.mh_home_addr ~src_port:46000 ~dst_port:9
       (Bytes.make 512 'a'));
  Net.run net;
  net

let fragmented_at_576 () =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let b = Net.add_host net "b" in
  ignore
    (Net.p2p net ~mtu:576 ~prefix:(prefix "10.9.0.0/30")
       (a, "if0", addr "10.9.0.1")
       (b, "if0", addr "10.9.0.2"));
  ignore
    (Net.send a
       (udp_packet ~src:(addr "10.9.0.1") ~dst:(addr "10.9.0.2") 1400));
  Net.run net;
  net

(* Addressed to [mid], listing [d]: [mid] rewrites it towards [d]. *)
let rerouted_by_lsr () =
  let net = Net.create () in
  let lan = Net.add_segment net ~name:"lan" () in
  let host name a =
    let node = Net.add_host net name in
    ignore
      (Net.attach node lan ~ifname:"eth0" ~addr:(addr a)
         ~prefix:(prefix "10.0.0.0/24"));
    node
  in
  let s = host "s" "10.0.0.1" in
  let _mid = host "mid" "10.0.0.2" in
  let _d = host "d" "10.0.0.3" in
  let options = Ipv4_options.build_lsr ~via:[ addr "10.0.0.3" ] in
  ignore
    (Net.send s
       (udp_packet ~options ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2") 100));
  Net.run net;
  net

(* Every frame is delayed by 5 ms and duplicated. *)
let duplicated_and_delayed () =
  let net, a, _r, _b = routed_triangle () in
  Net.set_fault_hook net
    (Some
       (fun ~link:_ ~src:_ ~dst:_ ->
         Net.Fault_deliver { extra_delay = 0.005; duplicate = true }));
  ignore
    (Net.send a (udp_packet ~src:(addr "10.1.0.1") ~dst:(addr "10.2.0.2") 400));
  Net.run net;
  net

(* a -(9600 bit/s, 10 ms)- r - b: each frame reaches r
   [latency + 8 * bytes / bandwidth] after it left a. *)
let slow_link () =
  let net = Net.create () in
  let a = Net.add_host net "a" in
  let r = Net.add_router net "r" in
  let b = Net.add_host net "b" in
  ignore
    (Net.p2p net ~latency:0.010 ~bandwidth:9600.0
       ~prefix:(prefix "10.1.0.0/30")
       (a, "if0", addr "10.1.0.1")
       (r, "if0", addr "10.1.0.2"));
  ignore
    (Net.p2p net ~prefix:(prefix "10.2.0.0/30")
       (r, "if1", addr "10.2.0.1")
       (b, "if0", addr "10.2.0.2"));
  Routing.add_default (Net.routing a) ~gateway:(addr "10.1.0.2") ~iface:"if0";
  List.iter
    (fun size ->
      ignore
        (Net.send a
           (udp_packet ~src:(addr "10.1.0.1") ~dst:(addr "10.2.0.2") size)))
    [ 10; 200; 1000 ];
  Net.run net;
  let records = Trace.records (Net.trace net) in
  let arrivals = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r.Trace.event with
      | Trace.Forward { node = "r"; frame; _ } ->
          Hashtbl.replace arrivals frame.Trace.id r.Trace.time
      | _ -> ())
    records;
  let slow =
    List.filter_map
      (fun r ->
        match r.Trace.event with
        | Trace.Transmit { link = "a<->r"; frame; bytes } ->
            Some (r.Trace.time, frame.Trace.id, bytes)
        | _ -> None)
      records
  in
  Alcotest.(check int) "three frames on the slow link" 3 (List.length slow);
  List.iter
    (fun (sent, id, bytes) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "frame %d (%d bytes) reaches r" id bytes)
        (sent +. 0.010 +. (8.0 *. float_of_int bytes /. 9600.0))
        (match Hashtbl.find_opt arrivals id with
        | Some t -> t
        | None -> Alcotest.failf "frame %d never reached r" id))
    slow;
  net

(* Each frame's length is computed once, where its packet enters a link,
   and carried from there: the Transmit trace, the MTU test and a link's
   serialisation delay all read it. *)
let test_carried_length () =
  let worlds =
    [ originated_and_forwarded (); parked_on_arp () ]
    @ List.map tunnelled Mobileip.Encap.all_modes
    @ [
        fragmented_at_576 ();
        rerouted_by_lsr ();
        duplicated_and_delayed ();
        slow_link ();
      ]
  in
  let kinds = List.concat_map transmitted_kinds worlds in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " transmitted") true (List.mem kind kinds))
    [ "udp"; "tcp"; "icmp"; "ipip"; "gre"; "minimal"; "fragment"; "lsr" ]

(* ---------- directed broadcast ---------- *)

(* h1..h3 and r on 10.0.0.0/24, h4 on 10.0.1.0/24 on the same segment;
   r also reaches [far] over a point-to-point link. *)
let test_directed_broadcast_follows_readdressing () =
  let net = Net.create () in
  let lan = Net.add_segment net ~name:"lan" () in
  let on_lan name a p =
    let node = Net.add_host net name in
    (node, Net.attach node lan ~ifname:"eth0" ~addr:(addr a) ~prefix:(prefix p))
  in
  let h1, _ = on_lan "h1" "10.0.0.11" "10.0.0.0/24" in
  let _, i2 = on_lan "h2" "10.0.0.12" "10.0.0.0/24" in
  let _ = on_lan "h3" "10.0.0.13" "10.0.0.0/24" in
  let h4, _ = on_lan "h4" "10.0.1.9" "10.0.1.0/24" in
  let r = Net.add_router net "r" in
  ignore
    (Net.attach r lan ~ifname:"eth0" ~addr:(addr "10.0.0.1")
       ~prefix:(prefix "10.0.0.0/24"));
  let far = Net.add_host net "far" in
  ignore
    (Net.p2p net ~prefix:(prefix "10.9.0.0/30")
       (r, "wan", addr "10.9.0.1")
       (far, "wan", addr "10.9.0.2"));
  let trace = Net.trace net in
  let broadcast from src dst =
    let flow = Net.send from (udp_packet ~src:(addr src) ~dst:(addr dst) 64) in
    Net.run net;
    flow
  in
  let reached flow =
    List.filter (fun node -> Trace.delivered trace ~flow ~node)
  in
  let everyone = [ "h1"; "h2"; "h3"; "h4"; "r"; "far" ] in
  let flow = broadcast h1 "10.0.0.11" "10.0.0.255" in
  Alcotest.(check (list string))
    "10.0.0.255 reaches the segment's 10.0.0.0/24 hosts" [ "h2"; "h3"; "r" ]
    (reached flow everyone);
  Alcotest.(check bool) "r does not forward it" false
    (List.exists
       (fun record ->
         match record.Trace.event with
         | Trace.Forward _ -> true
         | Trace.Transmit { link; _ } -> link <> "lan"
         | _ -> false)
       (Trace.flow_records trace ~flow));
  Net.set_iface_addr i2 ~addr:(addr "10.0.1.7") ~prefix:(prefix "10.0.1.0/24");
  let flow = broadcast h1 "10.0.0.11" "10.0.0.255" in
  Alcotest.(check (list string))
    "after h2 moves to 10.0.1.0/24, 10.0.0.255 is not local to it"
    [ "h3"; "r" ] (reached flow everyone);
  let flow = broadcast h4 "10.0.1.9" "10.0.1.255" in
  Alcotest.(check (list string)) "and 10.0.1.255 is" [ "h2" ]
    (reached flow everyone)

let suites =
  [
    ( "net",
      [
        Alcotest.test_case "ping same segment" `Quick test_ping_same_segment;
        Alcotest.test_case "ping via router" `Quick test_ping_routed;
        Alcotest.test_case "arp cache populated" `Quick test_arp_populated;
        Alcotest.test_case "ingress filter drops spoof" `Quick
          test_ingress_filter_drops;
        Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
        Alcotest.test_case "udp end to end" `Quick test_udp_end_to_end;
        Alcotest.test_case "tcp end to end" `Quick test_tcp_end_to_end;
        Alcotest.test_case "tcp large transfer" `Quick
          test_tcp_large_transfer_segments;
        Alcotest.test_case "tcp aborts when path dies" `Quick
          test_tcp_aborts_when_path_dies;
        Alcotest.test_case "dhcp lease" `Quick test_dhcp_lease;
        Alcotest.test_case "fragmentation + reassembly" `Quick
          test_fragmentation_on_path;
        Alcotest.test_case "late fragment expires" `Quick
          test_late_fragment_expires;
        Alcotest.test_case "node index at 4096 hosts" `Quick test_node_index;
        Alcotest.test_case "same segment predicate" `Quick
          test_same_segment_predicate;
        Alcotest.test_case "l2 direct delivery (In-DH primitive)" `Quick
          test_l2_direct_delivery;
        QCheck_alcotest.to_alcotest prop_addr_map_matches_hashtbl;
        Alcotest.test_case "Addr_map keys addresses" `Quick
          test_addr_map_addr_keys;
        Alcotest.test_case "router hop allocates under 45 words" `Quick
          test_hop_allocation;
        Alcotest.test_case "bad link latency or bandwidth rejected" `Quick
          test_bad_link_parameters;
        Alcotest.test_case "frames carry their packet's length" `Quick
          test_carried_length;
        Alcotest.test_case "directed broadcast follows re-addressing" `Quick
          test_directed_broadcast_follows_readdressing;
        Alcotest.test_case "dhcp ignores a bad prefix ack" `Quick
          test_dhcp_bad_prefix_ack_ignored;
      ] );
  ]
