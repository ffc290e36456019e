(* Loose source routing: option codec, hop-by-hop rewriting, the router
   slow path, and the interaction with ingress filtering (§4). *)

open Netsim

let a = Ipv4_addr.of_string

let test_build_parse () =
  let via = [ a "10.0.0.1"; a "20.0.0.2"; a "30.0.0.3" ] in
  let opt = Ipv4_options.build_lsr ~via in
  Alcotest.(check int) "padded to multiple of 4" 0 (Bytes.length opt mod 4);
  match Ipv4_options.parse_lsr opt with
  | Some (0, addrs) ->
      Alcotest.(check (list string)) "addresses"
        (List.map Ipv4_addr.to_string via)
        (List.map Ipv4_addr.to_string addrs)
  | Some (i, _) -> Alcotest.failf "pointer index %d, expected 0" i
  | None -> Alcotest.fail "no LSR found"

let test_next_and_advance () =
  let opt = Ipv4_options.build_lsr ~via:[ a "1.1.1.1"; a "2.2.2.2" ] in
  Alcotest.(check (option string)) "first hop" (Some "1.1.1.1")
    (Option.map Ipv4_addr.to_string (Ipv4_options.lsr_next_hop opt));
  let opt2 = Option.get (Ipv4_options.advance_lsr opt ~here:(a "9.9.9.9")) in
  Alcotest.(check (option string)) "second hop" (Some "2.2.2.2")
    (Option.map Ipv4_addr.to_string (Ipv4_options.lsr_next_hop opt2));
  (* The visited slot records the rewriting node. *)
  (match Ipv4_options.parse_lsr opt2 with
  | Some (1, [ recorded; _ ]) ->
      Alcotest.(check string) "recorded route" "9.9.9.9"
        (Ipv4_addr.to_string recorded)
  | _ -> Alcotest.fail "unexpected parse");
  let opt3 = Option.get (Ipv4_options.advance_lsr opt2 ~here:(a "8.8.8.8")) in
  Alcotest.(check bool) "exhausted" true
    (Ipv4_options.lsr_next_hop opt3 = None);
  Alcotest.(check bool) "advance past end refuses" true
    (Ipv4_options.advance_lsr opt3 ~here:(a "7.7.7.7") = None)

let test_bounds () =
  Alcotest.check_raises "empty route"
    (Invalid_argument "Ipv4_options.build_lsr: route must have 1..9 hops")
    (fun () -> ignore (Ipv4_options.build_lsr ~via:[]))

let test_nop_padding_scanned () =
  (* An LSR preceded by NOP bytes is still found. *)
  let opt = Ipv4_options.build_lsr ~via:[ a "1.1.1.1" ] in
  let padded = Bytes.cat (Bytes.make 4 '\001') opt in
  Alcotest.(check bool) "found after NOPs" true
    (Ipv4_options.lsr_next_hop padded <> None)

(* An LSR option with [pointer], one route address (10.0.2.2) and a NOP:
   [131; 7; pointer; 10; 0; 2; 2; 1]. *)
let lsr_with_pointer pointer =
  let opt = Ipv4_options.build_lsr ~via:[ a "10.0.2.2" ] in
  Bytes.set opt 2 (Char.chr pointer);
  opt

(* RFC 791's pointer is 4, 8, 12...  Any other value names no address, so
   the option reads as no route: no lookup indexes before the first
   address, and no advance writes over the option's own bytes or across
   two addresses. *)
let test_malformed_pointer () =
  List.iter
    (fun pointer ->
      List.iter
        (fun (where, opt) ->
          let name what =
            Printf.sprintf "pointer %d %s: %s" pointer where what
          in
          Alcotest.(check bool) (name "parse_lsr") true
            (Ipv4_options.parse_lsr opt = None);
          Alcotest.(check bool) (name "lsr_next_hop") true
            (Ipv4_options.lsr_next_hop opt = None);
          Alcotest.(check bool) (name "advance_lsr") true
            (Ipv4_options.advance_lsr opt ~here:(a "9.9.9.9") = None))
        [
          ("at offset 0", lsr_with_pointer pointer);
          ( "after NOPs",
            Bytes.cat (Bytes.make 4 '\001') (lsr_with_pointer pointer) );
        ])
    [ 0; 1; 3; 5; 6; 7 ]

(* A packet carrying a malformed route is an ordinary packet for the host
   it is addressed to. *)
let test_malformed_pointer_delivered () =
  List.iter
    (fun pointer ->
      let net = Net.create () in
      let s = Net.add_host net "a" in
      let d = Net.add_host net "b" in
      let seg = Net.add_segment net ~name:"lan" () in
      let p = Ipv4_addr.Prefix.of_string "10.0.0.0/24" in
      ignore (Net.attach s seg ~ifname:"eth0" ~addr:(a "10.0.0.1") ~prefix:p);
      ignore (Net.attach d seg ~ifname:"eth0" ~addr:(a "10.0.0.2") ~prefix:p);
      let pkt =
        Ipv4_packet.make ~options:(lsr_with_pointer pointer)
          ~protocol:Ipv4_packet.P_udp ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2")
          (Ipv4_packet.Udp
             (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 8 'x')))
      in
      let flow = Net.send s pkt in
      Net.run net;
      Alcotest.(check bool)
        (Printf.sprintf "pointer %d: delivered to b" pointer)
        true
        (Trace.delivered (Net.trace net) ~flow ~node:"b"))
    [ 0; 5 ]

(* Every route [build_lsr] can write parses back whole, and each advance
   records the rewriting node and moves the pointer one address on. *)
let prop_build_parse_roundtrip =
  let arb_addr = QCheck.map Ipv4_addr.of_int32 QCheck.int32 in
  QCheck.Test.make ~name:"build_lsr/parse_lsr roundtrip" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 9) arb_addr) arb_addr)
    (fun (via, here) ->
      let rec walk opt k =
        let route = List.mapi (fun i x -> if i < k then here else x) via in
        Ipv4_options.parse_lsr opt = Some (k, route)
        && Option.equal Ipv4_addr.equal
             (Ipv4_options.lsr_next_hop opt)
             (List.nth_opt via k)
        &&
        match Ipv4_options.advance_lsr opt ~here with
        | Some opt' -> walk opt' (k + 1)
        | None -> k = List.length via
      in
      walk (Ipv4_options.build_lsr ~via) 0)

(* RFC 791 allows an option of length 2 (type and length only).  An LSR
   after one is still found, as [copied_options] finds it for the later
   fragments; an LSR of length 2 has no pointer, so it names no route. *)
let test_lsr_after_two_byte_option () =
  let route = Ipv4_options.build_lsr ~via:[ a "10.0.2.2" ] in
  let opt = Bytes.cat (Bytes.of_string "\x44\x02\x01\x01") route in
  Alcotest.(check (option string))
    "next hop" (Some "10.0.2.2")
    (Option.map Ipv4_addr.to_string (Ipv4_options.lsr_next_hop opt));
  Alcotest.(check bool)
    "parsed route" true
    (Ipv4_options.parse_lsr opt = Some (0, [ a "10.0.2.2" ]));
  Alcotest.(check bool)
    "copied for later fragments" true
    (Bytes.equal (Ipv4_options.copied_options opt) route);
  let short = Bytes.of_string "\x83\x02\x01\x01" in
  Alcotest.(check bool)
    "a two-byte LSR names no route" true
    (Ipv4_options.parse_lsr short = None
    && Ipv4_options.lsr_next_hop short = None
    && Ipv4_options.advance_lsr short ~here:(a "9.9.9.9") = None)

(* Live: a packet source-routed through an intermediate host reaches the
   final destination, with the detour visible in the trace. *)
let test_lsr_forwarding_live () =
  let net = Net.create () in
  let s = Net.add_host net "s" in
  let mid = Net.add_host net "mid" in
  let d = Net.add_host net "d" in
  let seg = Net.add_segment net ~name:"lan" () in
  let p = Ipv4_addr.Prefix.of_string "10.0.0.0/24" in
  ignore (Net.attach s seg ~ifname:"eth0" ~addr:(a "10.0.0.1") ~prefix:p);
  ignore (Net.attach mid seg ~ifname:"eth0" ~addr:(a "10.0.0.2") ~prefix:p);
  ignore (Net.attach d seg ~ifname:"eth0" ~addr:(a "10.0.0.3") ~prefix:p);
  let pkt =
    Ipv4_packet.make
      ~options:(Ipv4_options.build_lsr ~via:[ a "10.0.0.3" ])
      ~protocol:Ipv4_packet.P_udp ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2")
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 8 'x')))
  in
  let flow = Net.send s pkt in
  Net.run net;
  Alcotest.(check bool) "delivered at the final destination" true
    (Trace.delivered (Net.trace net) ~flow ~node:"d");
  Alcotest.(check bool) "path went through mid" true
    (List.mem "mid" (Trace.path (Net.trace net) ~flow))

let test_option_slow_path_costs_latency () =
  (* The same payload with and without options across the backbone: the
     optioned one pays each router's penalty. *)
  let run_probe ~with_options =
    let topo = Scenarios.Topo.build () in
    Scenarios.Topo.roam topo ();
    Netsim.Trace.clear (Net.trace topo.Scenarios.Topo.net);
    Mobileip.Mobile_host.pin_method topo.Scenarios.Topo.mh
      ~dst:topo.Scenarios.Topo.ch_addr (Some Mobileip.Grid.Out_DH);
    let options =
      if with_options then
        (* A route that is already exhausted: pure option-bearing load. *)
        Option.get
          (Ipv4_options.advance_lsr
             (Ipv4_options.build_lsr ~via:[ topo.Scenarios.Topo.ch_addr ])
             ~here:(a "10.0.0.1"))
      else Bytes.empty
    in
    let pkt =
      Ipv4_packet.make ~options ~protocol:Ipv4_packet.P_udp
        ~src:topo.Scenarios.Topo.mh_home_addr ~dst:topo.Scenarios.Topo.ch_addr
        (Ipv4_packet.Udp
           (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 64 'o')))
    in
    let flow = Net.send topo.Scenarios.Topo.mh_node pkt in
    Net.run topo.Scenarios.Topo.net;
    let trace = Net.trace topo.Scenarios.Topo.net in
    ( Trace.delivered trace ~flow ~node:"ch",
      match (Trace.send_time trace ~flow, Trace.delivery_time trace ~flow ~node:"ch") with
      | Some t0, Some t1 -> t1 -. t0
      | _ -> Float.nan )
  in
  let ok_plain, t_plain = run_probe ~with_options:false in
  let ok_opt, t_opt = run_probe ~with_options:true in
  Alcotest.(check bool) "both delivered" true (ok_plain && ok_opt);
  (* 4 routers on the path (vr, b3, b2, cr), 1 ms penalty each. *)
  Alcotest.(check (float 0.0005)) "4 ms slower with options" 0.004
    (t_opt -. t_plain)

let test_lsr_does_not_evade_filters () =
  (* §4/A1: the LSR packet's source address is still the home address; an
     ingress filter at the home boundary kills it exactly like Out-DH. *)
  let topo =
    Scenarios.Topo.build ~ch_position:Scenarios.Topo.Inside_home
      ~filtering:Scenarios.Topo.ingress_only ()
  in
  Scenarios.Topo.roam topo ();
  Mobileip.Mobile_host.pin_method topo.Scenarios.Topo.mh
    ~dst:(Mobileip.Home_agent.address topo.Scenarios.Topo.ha)
    (Some Mobileip.Grid.Out_DH);
  let pkt =
    Ipv4_packet.make
      ~options:(Ipv4_options.build_lsr ~via:[ topo.Scenarios.Topo.ch_addr ])
      ~protocol:Ipv4_packet.P_udp ~src:topo.Scenarios.Topo.mh_home_addr
      ~dst:(Mobileip.Home_agent.address topo.Scenarios.Topo.ha)
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make 8 'f')))
  in
  let flow = Net.send topo.Scenarios.Topo.mh_node pkt in
  Net.run topo.Scenarios.Topo.net;
  Alcotest.(check bool) "not delivered" false
    (Trace.delivered (Net.trace topo.Scenarios.Topo.net) ~flow ~node:"ch");
  Alcotest.(check bool) "killed by the ingress filter" true
    (List.exists
       (fun (n, r) -> n = "hr" && Trace.drop_reason_equal r Trace.Ingress_filter)
       (Trace.drops (Net.trace topo.Scenarios.Topo.net) ~flow))

let suites =
  [
    ( "lsr",
      [
        Alcotest.test_case "build/parse" `Quick test_build_parse;
        Alcotest.test_case "next hop and advance" `Quick test_next_and_advance;
        Alcotest.test_case "bounds" `Quick test_bounds;
        Alcotest.test_case "nop padding scanned" `Quick test_nop_padding_scanned;
        Alcotest.test_case "live source-routed delivery" `Quick
          test_lsr_forwarding_live;
        Alcotest.test_case "option slow path latency" `Quick
          test_option_slow_path_costs_latency;
        Alcotest.test_case "lsr does not evade filters" `Quick
          test_lsr_does_not_evade_filters;
        Alcotest.test_case "malformed pointer: no route" `Quick
          test_malformed_pointer;
        Alcotest.test_case "malformed pointer: delivered" `Quick
          test_malformed_pointer_delivered;
        QCheck_alcotest.to_alcotest prop_build_parse_roundtrip;
        Alcotest.test_case "lsr after a two-byte option" `Quick
          test_lsr_after_two_byte_option;
      ] );
  ]
