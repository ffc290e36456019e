(* Trace query helpers on crafted records, plus topology construction
   invariants for every parameter combination. *)

open Netsim

let a = Ipv4_addr.of_string

let dummy_pkt =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(a "1.1.1.1")
    ~dst:(a "2.2.2.2")
    (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 10 'd')))

let fi id flow = { Trace.id; flow; pkt = dummy_pkt }

let crafted_trace () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 (Trace.Send { node = "s"; frame = fi 1 7 });
  Trace.record t ~time:0.1
    (Trace.Transmit { link = "l1"; frame = fi 1 7; bytes = 38 });
  Trace.record t ~time:0.2
    (Trace.Forward { node = "r"; in_iface = "a"; out_iface = "b"; frame = fi 1 7 });
  Trace.record t ~time:0.3
    (Trace.Transmit { link = "l2"; frame = fi 1 7; bytes = 38 });
  Trace.record t ~time:0.4 (Trace.Deliver { node = "d"; frame = fi 1 7 });
  (* an unrelated flow *)
  Trace.record t ~time:0.5 (Trace.Send { node = "x"; frame = fi 2 8 });
  Trace.record t ~time:0.6
    (Trace.Drop { node = "y"; reason = Trace.No_route; frame = fi 2 8 });
  t

let test_flow_queries () =
  let t = crafted_trace () in
  Alcotest.(check int) "transmissions" 2 (Trace.transmissions t ~flow:7);
  Alcotest.(check int) "wire bytes" 76 (Trace.wire_bytes t ~flow:7);
  Alcotest.(check bool) "delivered" true (Trace.delivered t ~flow:7 ~node:"d");
  Alcotest.(check (option (float 0.0))) "delivery time" (Some 0.4)
    (Trace.delivery_time t ~flow:7 ~node:"d");
  Alcotest.(check (option (float 0.0))) "send time" (Some 0.0)
    (Trace.send_time t ~flow:7);
  Alcotest.(check (list string)) "path" [ "s"; "r"; "d" ]
    (Trace.path t ~flow:7);
  Alcotest.(check int) "flow 8 not mixed in" 0 (Trace.transmissions t ~flow:8);
  Alcotest.(check bool) "flow 8 dropped" true
    (List.exists
       (fun (n, r) -> n = "y" && Trace.drop_reason_equal r Trace.No_route)
       (Trace.drops t ~flow:8));
  Alcotest.(check int) "record count" 7 (Trace.length t);
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_path_dedups_consecutive () =
  let t = Trace.create () in
  Trace.record t ~time:0.0 (Trace.Send { node = "s"; frame = fi 1 7 });
  Trace.record t ~time:0.1 (Trace.Encapsulate { node = "s"; frame = fi 2 7 });
  Trace.record t ~time:0.2 (Trace.Deliver { node = "d"; frame = fi 3 7 });
  Alcotest.(check (list string)) "s appears once" [ "s"; "d" ]
    (Trace.path t ~flow:7)

(* ---- topology invariants ---- *)

let ping_home topo =
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  let got = ref None in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt -> got := Some rtt);
  Scenarios.Topo.run topo;
  !got

let test_every_ch_position_builds_and_works () =
  List.iter
    (fun pos ->
      let topo = Scenarios.Topo.build ~ch_position:pos () in
      Scenarios.Topo.roam topo ();
      Alcotest.(check bool) "registered" true
        (Mobileip.Mobile_host.registered topo.Scenarios.Topo.mh);
      Alcotest.(check bool) "reachable via tunnel" true (ping_home topo <> None))
    Scenarios.Topo.
      [ Inside_home; Remote; Near_visited; On_visited_segment ]

let test_backbone_length_parametric () =
  List.iter
    (fun n ->
      let topo = Scenarios.Topo.build ~backbone_hops:n () in
      Scenarios.Topo.roam topo ();
      Alcotest.(check bool)
        (Printf.sprintf "works with %d backbone hops" n)
        true
        (ping_home topo <> None))
    [ 2; 3; 7 ]

let test_roam_static_variant () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam_static topo ();
  Alcotest.(check bool) "registered" true
    (Mobileip.Mobile_host.registered topo.Scenarios.Topo.mh);
  Alcotest.(check (option string)) "static coa" (Some "131.7.0.200")
    (Option.map Ipv4_addr.to_string
       (Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh))

let test_strict_filtering_blocks_both_ways () =
  (* Under strict filtering (home ingress + visited no-transit), Out-DH
     dies at the *visited* boundary before it even leaves. *)
  let topo =
    Scenarios.Topo.build ~ch_position:Scenarios.Topo.Remote
      ~filtering:Scenarios.Topo.strict ()
  in
  Scenarios.Topo.roam topo ();
  Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
    Mobileip.Grid.Out_DH;
  Trace.clear (Net.trace topo.Scenarios.Topo.net);
  let udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
  let flow =
    Transport.Udp_service.send udp ~src:topo.Scenarios.Topo.mh_home_addr
      ~dst:topo.Scenarios.Topo.ch_addr ~src_port:7100 ~dst_port:9
      (Bytes.make 16 't')
  in
  Scenarios.Topo.run topo;
  Alcotest.(check bool) "dropped at vr with transit-filter" true
    (List.exists
       (fun (n, r) ->
         n = "vr" && Trace.drop_reason_equal r Trace.Transit_filter)
       (Trace.drops (Net.trace topo.Scenarios.Topo.net) ~flow))

let test_dhcp_leases_accumulate () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  Alcotest.(check int) "one lease" 1
    (Transport.Dhcp.Server.outstanding topo.Scenarios.Topo.dhcp);
  (* Same client re-requesting keeps its lease (stable per MAC). *)
  Scenarios.Topo.come_home topo;
  Scenarios.Topo.roam topo ();
  Alcotest.(check int) "still one lease" 1
    (Transport.Dhcp.Server.outstanding topo.Scenarios.Topo.dhcp)

let test_workload_udp_transaction () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let answered, rtt =
    Scenarios.Workload.udp_request_response ~net:topo.Scenarios.Topo.net
      ~client:topo.Scenarios.Topo.mh_node ~server:topo.Scenarios.Topo.ch_node
      ~server_addr:topo.Scenarios.Topo.ch_addr ~port:Transport.Well_known.nfs
      ~src:topo.Scenarios.Topo.mh_home_addr ()
  in
  Alcotest.(check bool) "answered" true answered;
  Alcotest.(check bool) "rtt positive" true (rtt > 0.0)

let test_workload_http_fetch () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Workload.install_http_server topo.Scenarios.Topo.ch_node ();
  Scenarios.Topo.roam topo ();
  let ok, elapsed =
    Scenarios.Workload.http_fetch ~net:topo.Scenarios.Topo.net
      ~client:topo.Scenarios.Topo.mh_node
      ~server_addr:topo.Scenarios.Topo.ch_addr
      ~src:topo.Scenarios.Topo.mh_home_addr ()
  in
  Alcotest.(check bool) "fetched" true ok;
  Alcotest.(check bool) "took time" true (elapsed > 0.0)

(* ---- trace gating ---- *)

let gating_world () =
  let net = Net.create () in
  let h1 = Net.add_host net "h1" in
  let h2 = Net.add_host net "h2" in
  let seg = Net.add_segment net ~name:"lan" () in
  let pfx = Ipv4_addr.Prefix.of_string "10.0.0.0/24" in
  let _ = Net.attach h1 seg ~ifname:"eth0" ~addr:(a "10.0.0.1") ~prefix:pfx in
  let _ = Net.attach h2 seg ~ifname:"eth0" ~addr:(a "10.0.0.2") ~prefix:pfx in
  ignore (Transport.Icmp_service.get h2);
  (net, h1)

let gating_ping net h1 =
  let got = ref false in
  Transport.Icmp_service.ping
    (Transport.Icmp_service.get h1)
    ~dst:(a "10.0.0.2")
    (fun ~rtt:_ -> got := true);
  Net.run net;
  !got

let render r = Format.asprintf "%.6f %a" r.Trace.time Trace.pp_record r

let test_gating_disabled_records_nothing () =
  let net, h1 = gating_world () in
  Net.set_tracing net false;
  Alcotest.(check bool) "ping still works" true (gating_ping net h1);
  Alcotest.(check int) "no records while disabled" 0
    (Trace.length (Net.trace net));
  (* Re-enabling resumes recording on the same trace. *)
  Net.set_tracing net true;
  Alcotest.(check bool) "second ping works" true (gating_ping net h1);
  Alcotest.(check bool) "records resume" true (Trace.length (Net.trace net) > 0)

(* An observer (resp. a [Net.with_tap] tap) must keep the data plane
   emitting events even when the trace itself is disabled, and the events
   must be exactly those an enabled run records. *)
let test_gating_observer_sees_identical_events () =
  let net1, h1 = gating_world () in
  Alcotest.(check bool) "reference ping" true (gating_ping net1 h1);
  let reference = List.map render (Trace.records (Net.trace net1)) in
  Alcotest.(check bool) "reference run recorded" true (reference <> []);
  let net2, h2 = gating_world () in
  Net.set_tracing net2 false;
  let seen = ref [] in
  ignore (Trace.add_observer (Net.trace net2) (fun r -> seen := r :: !seen));
  Alcotest.(check bool) "observed ping" true (gating_ping net2 h2);
  Alcotest.(check (list string)) "observer sees the enabled-run events"
    reference
    (List.rev_map render !seen);
  (* While a consumer keeps the trace interested, records are still
     logged to the buffer normally. *)
  Alcotest.(check (list string)) "buffer logged normally too" reference
    (List.map render (Trace.records (Net.trace net2)))

let test_gating_sink_sees_identical_events () =
  let net1, h1 = gating_world () in
  Alcotest.(check bool) "reference ping" true (gating_ping net1 h1);
  let reference = List.map render (Trace.records (Net.trace net1)) in
  let seen = ref [] in
  Net.with_tap
    (fun r -> seen := r :: !seen)
    (fun () ->
      let net2, h2 = gating_world () in
      Net.set_tracing net2 false;
      Alcotest.(check bool) "tapped ping" true (gating_ping net2 h2));
  Alcotest.(check (list string)) "tap sees the enabled-run events" reference
    (List.rev_map render !seen)

(* [Net.with_tap]: a world built inside the scope gets the tap, one built
   before it does not, and a world that outlives the scope sends the tap
   nothing more. *)
let test_with_tap_scope () =
  let before, h_before = gating_world () in
  let seen = ref [] in
  let inside, h_inside =
    Net.with_tap
      (fun r -> seen := r :: !seen)
      (fun () ->
        let inside, h = gating_world () in
        Alcotest.(check bool) "untapped ping" true (gating_ping before h_before);
        Alcotest.(check int) "a world built before the scope is not tapped" 0
          (List.length !seen);
        Alcotest.(check bool) "tapped ping" true (gating_ping inside h);
        (inside, h))
  in
  Alcotest.(check bool) "the tap saw records" true (!seen <> []);
  Alcotest.(check (list string))
    "the tap saw the inside world's records"
    (List.map render (Trace.records (Net.trace inside)))
    (List.rev_map render !seen);
  let n = List.length !seen in
  Alcotest.(check bool) "ping after the scope" true
    (gating_ping inside h_inside);
  Alcotest.(check int) "nothing reaches the tap after the scope" n
    (List.length !seen)

(* Nested taps see each record in installation order, and a world built
   after the inner scope closes gets the outer tap only. *)
let test_with_tap_nested_order () =
  let calls = ref [] in
  let tap name r = calls := (name, r) :: !calls in
  let inner_net, outer_net =
    Net.with_tap (tap "outer") (fun () ->
        let inner_net =
          Net.with_tap (tap "inner") (fun () ->
              let net, h = gating_world () in
              ignore (gating_ping net h);
              net)
        in
        let net, h = gating_world () in
        ignore (gating_ping net h);
        (inner_net, net))
  in
  let expected =
    List.concat_map
      (fun r -> [ ("outer", r); ("inner", r) ])
      (Trace.records (Net.trace inner_net))
    @ List.map (fun r -> ("outer", r)) (Trace.records (Net.trace outer_net))
  in
  Alcotest.(check int) "one call per tap per record" (List.length expected)
    (List.length !calls);
  Alcotest.(check bool) "installation order, then the outer tap alone" true
    (List.for_all2
       (fun (n, r) (n', r') -> n = n' && r == r')
       expected (List.rev !calls))

(* A default world costs at most 5 000 minor-heap words to build: routes
   take at most two trie nodes, per-node tables wait for their first
   entry, and the topology's constants are parsed once. *)
let test_build_allocation () =
  ignore (Scenarios.Topo.build ());
  let before = Gc.minor_words () in
  let topo = Scenarios.Topo.build () in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity topo);
  if words > 5000.0 then
    Alcotest.failf "Topo.build () allocated %.0f minor words (bound 5000)" words

let suites =
  [
    ( "trace+topo",
      [
        Alcotest.test_case "flow queries" `Quick test_flow_queries;
        Alcotest.test_case "path dedups" `Quick test_path_dedups_consecutive;
        Alcotest.test_case "every ch position works" `Quick
          test_every_ch_position_builds_and_works;
        Alcotest.test_case "backbone length parametric" `Quick
          test_backbone_length_parametric;
        Alcotest.test_case "roam static" `Quick test_roam_static_variant;
        Alcotest.test_case "strict filtering at visited boundary" `Quick
          test_strict_filtering_blocks_both_ways;
        Alcotest.test_case "dhcp leases stable per client" `Quick
          test_dhcp_leases_accumulate;
        Alcotest.test_case "workload udp transaction" `Quick
          test_workload_udp_transaction;
        Alcotest.test_case "workload http fetch" `Quick
          test_workload_http_fetch;
        Alcotest.test_case "gating: disabled records nothing" `Quick
          test_gating_disabled_records_nothing;
        Alcotest.test_case "gating: observer sees identical events" `Quick
          test_gating_observer_sees_identical_events;
        Alcotest.test_case "gating: sink sees identical events" `Quick
          test_gating_sink_sees_identical_events;
        Alcotest.test_case "build allocates under 5000 words" `Quick
          test_build_allocation;
        Alcotest.test_case "with_tap: scoped to new worlds" `Quick
          test_with_tap_scope;
        Alcotest.test_case "with_tap: nested taps in order" `Quick
          test_with_tap_nested_order;
      ] );
  ]
