(* Odds and ends: descriptive grid functions, engine guards, UDP checksum
   corner (zero transmitted as all-ones), conversation cleanup, table
   helpers, encap predicates. *)

open Netsim

let a = Ipv4_addr.of_string

let test_grid_descriptions_nonempty () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Mobileip.Grid.out_to_string m ^ " described")
        true
        (String.length (Mobileip.Grid.describe_out m) > 0))
    Mobileip.Grid.all_out;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Mobileip.Grid.in_to_string m ^ " described")
        true
        (String.length (Mobileip.Grid.describe_in m) > 0))
    Mobileip.Grid.all_in;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Mobileip.Grid.cell_to_string c ^ " described")
        true
        (String.length (Mobileip.Grid.describe_cell c) > 0))
    Mobileip.Grid.all_cells

let test_grid_string_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "out roundtrip" true
        (Mobileip.Grid.out_of_string (Mobileip.Grid.out_to_string m)
        = Some m))
    Mobileip.Grid.all_out;
  List.iter
    (fun m ->
      Alcotest.(check bool) "in roundtrip" true
        (Mobileip.Grid.in_of_string (Mobileip.Grid.in_to_string m) = Some m))
    Mobileip.Grid.all_in;
  Alcotest.(check bool) "garbage rejected" true
    (Mobileip.Grid.out_of_string "Out-XX" = None)

let test_udp_zero_checksum_transmitted_as_ones () =
  (* Find a payload whose computed checksum is zero: RFC 768 says transmit
     0xffff instead, and the receiver accepts it. *)
  let src = a "0.0.0.0" and dst = a "0.0.0.0" in
  (* With zero addresses and ports, the one's-complement sum is
     proto(17) + 2 x length(10) + payload word; choosing the payload word
     0xffff - 37 = 0xffda makes the computed checksum zero, which RFC 768
     requires be transmitted as 0xffff. *)
  let payload = Bytes.create 2 in
  Bytes.set payload 0 '\xff';
  Bytes.set payload 1 '\xda';
  let u = Udp_wire.make ~src_port:0 ~dst_port:0 payload in
  let wire = Udp_wire.encode ~src ~dst u in
  let stored =
    (Char.code (Bytes.get wire 6) lsl 8) lor Char.code (Bytes.get wire 7)
  in
  Alcotest.(check int) "transmitted as 0xffff" 0xffff stored;
  match Udp_wire.decode ~src ~dst wire with
  | Ok u' -> Alcotest.(check bool) "accepted" true (Udp_wire.equal u u')
  | Error e -> Alcotest.fail e

let test_engine_max_events_guard () =
  let e = Engine.create () in
  let rec forever () = Engine.after e 0.001 forever in
  forever ();
  Engine.run ~max_events:100 e;
  (* It stopped rather than looping forever. *)
  Alcotest.(check bool) "bounded" true (Engine.pending e >= 1)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:1.0 ~seq:0 "x";
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None)

let test_conversation_cleans_up () =
  let topo =
    Scenarios.Topo.build ~ch_capability:Mobileip.Correspondent.Mobile_aware ()
  in
  Scenarios.Topo.roam topo ();
  let cell =
    { Mobileip.Grid.incoming = Mobileip.Grid.In_DE; outgoing = Mobileip.Grid.Out_DE }
  in
  let (_ : Mobileip.Conversation.udp_result) =
    Mobileip.Conversation.run_udp ~net:topo.Scenarios.Topo.net
      ~mh:topo.Scenarios.Topo.mh ~ch:topo.Scenarios.Topo.ch
      ~ch_addr:topo.Scenarios.Topo.ch_addr ~cell ()
  in
  (* After the run, the forced/pinned methods are released: the CH falls
     back to its automatic choice and the MH to its default. *)
  Alcotest.(check string) "mh default restored" "Out-IE"
    (Mobileip.Grid.out_to_string
       (Mobileip.Mobile_host.out_method_for topo.Scenarios.Topo.mh
          ~dst:topo.Scenarios.Topo.ch_addr));
  (* The binding cache seeded by the harness is still there, so the
     mobile-aware CH picks In-DE on its own. *)
  Alcotest.(check string) "ch auto method" "In-DE"
    (Mobileip.Grid.in_to_string
       (Mobileip.Correspondent.in_method_for topo.Scenarios.Topo.ch
          ~dst:topo.Scenarios.Topo.mh_home_addr))

let test_table_helpers () =
  Alcotest.(check string) "pct" "50%" (Experiments.Table.pct 1 2);
  Alcotest.(check string) "pct zero den" "-" (Experiments.Table.pct 1 0);
  Alcotest.(check string) "ms" "12.0ms" (Experiments.Table.ms 0.012);
  Alcotest.(check string) "opt_ms none" "-" (Experiments.Table.opt_ms None);
  Alcotest.(check string) "f1" "3.1" (Experiments.Table.f1 3.14)

let test_encap_predicates () =
  let inner =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(a "1.1.1.1")
      ~dst:(a "2.2.2.2")
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 Bytes.empty))
  in
  Alcotest.(check bool) "plain is not tunnel" false
    (Mobileip.Encap.is_tunnel inner);
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        (Mobileip.Encap.mode_to_string mode ^ " is tunnel")
        true
        (Mobileip.Encap.is_tunnel
           (Mobileip.Encap.wrap mode ~src:(a "3.3.3.3") ~dst:(a "4.4.4.4")
              inner)))
    Mobileip.Encap.all_modes

let test_binding_validity () =
  let b =
    {
      Mobileip.Types.home = a "36.1.0.5";
      care_of = a "131.7.0.100";
      lifetime = 100.0;
      registered_at = 50.0;
      sequence = 1;
    }
  in
  Alcotest.(check bool) "valid before expiry" true
    (Mobileip.Types.binding_valid ~now:149.9 b);
  Alcotest.(check bool) "invalid at expiry" false
    (Mobileip.Types.binding_valid ~now:150.0 b);
  Alcotest.(check (float 0.0)) "expires_at" 150.0
    (Mobileip.Types.binding_expires_at b)

let test_reg_codes () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "code roundtrip" true
        (Mobileip.Types.reg_code_of_int (Mobileip.Types.reg_code_to_int c)
        = Some c))
    Mobileip.Types.[ Reg_accepted; Reg_denied_auth; Reg_denied_stale ];
  Alcotest.(check bool) "unknown code" true
    (Mobileip.Types.reg_code_of_int 99 = None)

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "grid descriptions" `Quick
          test_grid_descriptions_nonempty;
        Alcotest.test_case "grid string roundtrip" `Quick
          test_grid_string_roundtrip;
        Alcotest.test_case "udp zero checksum" `Quick
          test_udp_zero_checksum_transmitted_as_ones;
        Alcotest.test_case "engine max events guard" `Quick
          test_engine_max_events_guard;
        Alcotest.test_case "pqueue clear" `Quick test_pqueue_clear;
        Alcotest.test_case "conversation cleans up" `Quick
          test_conversation_cleans_up;
        Alcotest.test_case "table helpers" `Quick test_table_helpers;
        Alcotest.test_case "encap predicates" `Quick test_encap_predicates;
        Alcotest.test_case "binding validity" `Quick test_binding_validity;
        Alcotest.test_case "reg codes" `Quick test_reg_codes;
      ] );
  ]
