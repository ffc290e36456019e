(* Run-to-run determinism: the same scenario built twice in one process
   must replay record for record. This catches global state (frame and
   flow ids, sequence counters, caches) leaking from one world into the
   next; the golden-output test pins the bytes across processes. *)

open Netsim

(* Only the static roam is checked: [Mac_addr] draws from a process-wide
   counter, so a second world hands out different MACs and the DHCP
   exchange (keyed by client hardware address) differs between runs. *)
let replay roam =
  let w = Scenarios.Topo.build () in
  roam w;
  Scenarios.Topo.come_home w;
  Scenarios.Topo.run w;
  Trace.records (Net.trace w.Scenarios.Topo.net)

let check_replays roam () =
  let first = replay roam in
  let second = replay roam in
  Alcotest.(check bool) "trace non-empty" true (first <> []);
  Alcotest.(check int) "same record count" (List.length first)
    (List.length second);
  Alcotest.(check bool) "identical records" true (first = second)

(* Build a world, run a UDP datagram and a TCP transfer from the CH to the
   MH at home, and return only a weak pointer to it. *)
let run_and_drop () =
  let w = Scenarios.Topo.build () in
  let open Scenarios.Topo in
  let udp_got = ref 0 and tcp_got = ref 0 in
  Transport.Udp_service.listen (Transport.Udp_service.get w.mh_node) ~port:7
    (fun _ d -> udp_got := Bytes.length d.Transport.Udp_service.payload);
  ignore
    (Transport.Udp_service.send (Transport.Udp_service.get w.ch_node)
       ~dst:w.mh_home_addr ~src_port:7000 ~dst_port:7 (Bytes.make 64 'u'));
  Transport.Tcp.listen (Transport.Tcp.get w.mh_node) ~port:80 (fun c ->
      Transport.Tcp.on_receive c (fun d ->
          tcp_got := !tcp_got + Bytes.length d));
  let c =
    Transport.Tcp.connect (Transport.Tcp.get w.ch_node) ~dst:w.mh_home_addr
      ~dst_port:80 ()
  in
  Transport.Tcp.send_data c (Bytes.make 4000 't');
  Transport.Tcp.close c;
  run w;
  Alcotest.(check int) "udp delivered" 64 !udp_got;
  Alcotest.(check int) "tcp delivered" 4000 !tcp_got;
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some w.net);
  weak

(* Transport services live on their node: a dropped world is collected,
   and two worlds never share a service. *)
let test_world_lifetime () =
  let weak = run_and_drop () in
  Gc.full_major ();
  Alcotest.(check bool) "dropped world collected" false (Weak.check weak 0);
  let net = Net.create () in
  let n = Net.add_host net "n" in
  let ki : int Net.key = Net.new_key () in
  let ks : string Net.key = Net.new_key () in
  Net.set_local n ki 7;
  Net.set_local n ks "seven";
  Net.set_local n ki 8;
  Alcotest.(check (option int)) "int slot" (Some 8) (Net.local n ki);
  Alcotest.(check (option string)) "string slot" (Some "seven") (Net.local n ks);
  let w1 = Scenarios.Topo.build () and w2 = Scenarios.Topo.build () in
  let mh1 = w1.Scenarios.Topo.mh_node and mh2 = w2.Scenarios.Topo.mh_node in
  Alcotest.(check bool) "one udp service per node" true
    (Transport.Udp_service.get mh1 == Transport.Udp_service.get mh1);
  Alcotest.(check bool) "distinct udp services" true
    (Transport.Udp_service.get mh1 != Transport.Udp_service.get mh2);
  Alcotest.(check bool) "one tcp stack per node" true
    (Transport.Tcp.get mh1 == Transport.Tcp.get mh1);
  Alcotest.(check bool) "distinct tcp stacks" true
    (Transport.Tcp.get mh1 != Transport.Tcp.get mh2)

let suites =
  [
    ( "trace.determinism",
      [
        Alcotest.test_case "static roam replays exactly" `Quick
          (check_replays (fun w -> Scenarios.Topo.roam_static w ()));
        Alcotest.test_case "dropped worlds are freed" `Quick
          test_world_lifetime;
      ] );
  ]
