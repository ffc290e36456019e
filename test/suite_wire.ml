(* Wire-format codecs: UDP, TCP, ICMP — roundtrips, corruption detection,
   truncation, and property tests. *)

open Netsim

let src = Ipv4_addr.of_string "36.1.0.5"
let dst = Ipv4_addr.of_string "44.2.0.10"

(* ---- UDP ---- *)

let test_udp_roundtrip () =
  let u = Udp_wire.make ~src_port:5353 ~dst_port:53 (Bytes.of_string "query") in
  let wire = Udp_wire.encode ~src ~dst u in
  Alcotest.(check int) "length" (8 + 5) (Bytes.length wire);
  match Udp_wire.decode ~src ~dst wire with
  | Ok u' -> Alcotest.(check bool) "equal" true (Udp_wire.equal u u')
  | Error e -> Alcotest.fail e

let test_udp_checksum_covers_addresses () =
  let u = Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.of_string "x") in
  let wire = Udp_wire.encode ~src ~dst u in
  (* Decoding under a different pseudo-header must fail.  (Note merely
     swapping src and dst would NOT change the sum — one's-complement
     addition is commutative.) *)
  match Udp_wire.decode ~src:(Ipv4_addr.of_string "9.9.9.9") ~dst wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checksum ignored the pseudo-header"

let test_udp_corruption_detected () =
  let u = Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.of_string "payload") in
  let wire = Udp_wire.encode ~src ~dst u in
  Bytes.set wire 9 'X';
  match Udp_wire.decode ~src ~dst wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip not detected"

let test_udp_truncated () =
  match Udp_wire.decode ~src ~dst (Bytes.create 7) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated header"

let test_udp_port_range () =
  Alcotest.check_raises "port 65536"
    (Invalid_argument "Udp_wire: port 65536 out of range") (fun () ->
      ignore (Udp_wire.make ~src_port:65536 ~dst_port:1 Bytes.empty))

(* ---- TCP ---- *)

let test_tcp_roundtrip_all_flags () =
  List.iter
    (fun flags ->
      let t =
        Tcp_wire.make ~src_port:1234 ~dst_port:80 ~seq:1000000 ~ack_n:999
          ~flags ~window:4096 (Bytes.of_string "data!")
      in
      let wire = Tcp_wire.encode ~src ~dst t in
      match Tcp_wire.decode ~src ~dst wire with
      | Ok t' ->
          Alcotest.(check bool)
            (Format.asprintf "roundtrip %a" Tcp_wire.pp_flags flags)
            true (Tcp_wire.equal t t')
      | Error e -> Alcotest.fail e)
    [
      Tcp_wire.no_flags; Tcp_wire.flag_syn; Tcp_wire.flag_syn_ack;
      Tcp_wire.flag_ack; Tcp_wire.flag_fin_ack; Tcp_wire.flag_rst;
      { Tcp_wire.no_flags with Tcp_wire.psh = true; urg = true };
    ]

let test_tcp_seq_wraps () =
  Alcotest.(check int) "wrap" 5 (Tcp_wire.seq_add 0xffff_ffff 6);
  Alcotest.(check int) "no wrap" 100 (Tcp_wire.seq_add 99 1)

let test_tcp_seq_bounds () =
  Alcotest.check_raises "seq too big"
    (Invalid_argument "Tcp_wire.make: seq 4294967296 out of range") (fun () ->
      ignore
        (Tcp_wire.make ~src_port:1 ~dst_port:2 ~seq:0x1_0000_0000 ~ack_n:0
           ~flags:Tcp_wire.no_flags Bytes.empty))

let test_tcp_corruption_detected () =
  let t =
    Tcp_wire.make ~src_port:1 ~dst_port:2 ~seq:7 ~ack_n:8
      ~flags:Tcp_wire.flag_ack (Bytes.of_string "abc")
  in
  let wire = Tcp_wire.encode ~src ~dst t in
  Bytes.set wire 4 '\xff';
  match Tcp_wire.decode ~src ~dst wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "seq corruption not detected"

(* ---- ICMP ---- *)

let test_icmp_roundtrips () =
  List.iter
    (fun msg ->
      let wire = Icmp_wire.encode msg in
      match Icmp_wire.decode wire with
      | Ok msg' ->
          Alcotest.(check bool)
            (Format.asprintf "%a" Icmp_wire.pp msg)
            true (Icmp_wire.equal msg msg')
      | Error e -> Alcotest.fail e)
    [
      Icmp_wire.Echo_request { ident = 7; seq = 3; payload = Bytes.of_string "hi" };
      Icmp_wire.Echo_reply { ident = 7; seq = 3; payload = Bytes.create 56 };
      Icmp_wire.Dest_unreachable
        { code = Icmp_wire.Fragmentation_needed; context = Bytes.create 28 };
      Icmp_wire.Dest_unreachable
        { code = Icmp_wire.Admin_prohibited; context = Bytes.empty };
      Icmp_wire.Time_exceeded { context = Bytes.create 28 };
      Icmp_wire.Care_of_advert
        {
          home = src;
          care_of = Ipv4_addr.of_string "131.7.0.100";
          lifetime = 300;
        };
    ]

let test_icmp_corruption_detected () =
  let wire =
    Icmp_wire.encode
      (Icmp_wire.Echo_request { ident = 1; seq = 1; payload = Bytes.create 8 })
  in
  Bytes.set wire 5 '\x99';
  match Icmp_wire.decode wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_icmp_truncated () =
  match Icmp_wire.decode (Bytes.create 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated message"

(* ---- address codecs ---- *)

let test_address_codecs () =
  let buf = Bytes.make 8 '\000' in
  Ipv4_addr.write buf 4 (Ipv4_addr.of_string "131.7.0.100");
  Alcotest.(check string) "ipv4 in network order" "\x83\x07\x00\x64"
    (Bytes.sub_string buf 4 4);
  Mac_addr.write buf 2 (Mac_addr.of_string "02:00:00:ab:cd:ef");
  Alcotest.(check string) "mac in network order" "\x02\x00\x00\xab\xcd\xef"
    (Bytes.sub_string buf 2 6);
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "index out of bounds") f
  in
  raises "ipv4 read past the end" (fun () -> ignore (Ipv4_addr.read buf 5));
  raises "ipv4 write past the end" (fun () ->
      Ipv4_addr.write buf 5 Ipv4_addr.any);
  raises "ipv4 read before the start" (fun () ->
      ignore (Ipv4_addr.read buf (-1)));
  raises "mac read past the end" (fun () -> ignore (Mac_addr.read buf 3));
  raises "mac write past the end" (fun () ->
      Mac_addr.write buf 3 Mac_addr.broadcast);
  raises "mac read before the start" (fun () ->
      ignore (Mac_addr.read buf (-1)))

(* ---- properties ---- *)

let arb_payload = QCheck.map Bytes.of_string QCheck.(string_of_size Gen.(0 -- 200))
let arb_port = QCheck.(0 -- 65535)
let arb_addr = QCheck.map Ipv4_addr.of_int32 QCheck.int32

(* [write] into a filled buffer changes exactly the bytes at [off], to the
   address's octets in printed order, and [read] gives the address back. *)
let prop_address_codecs_roundtrip =
  QCheck.Test.make ~name:"address read/write roundtrip" ~count:300
    QCheck.(triple arb_addr (0 -- 0xffff_ffff_ffff) (0 -- 16))
    (fun (ip, m, off) ->
      let mac = Mac_addr.of_int m in
      let written write octets =
        let buf = Bytes.make (off + 10) '\xa5' in
        let expected = Bytes.copy buf in
        write buf off;
        List.iteri (fun i o -> Bytes.set expected (off + i) (Char.chr o)) octets;
        (Bytes.equal buf expected, buf)
      in
      let octets sep ~base s =
        List.map (fun o -> int_of_string (base ^ o)) (String.split_on_char sep s)
      in
      let ip_ok, b4 =
        written
          (fun b o -> Ipv4_addr.write b o ip)
          (octets '.' ~base:"" (Ipv4_addr.to_string ip))
      in
      let mac_ok, b6 =
        written
          (fun b o -> Mac_addr.write b o mac)
          (octets ':' ~base:"0x" (Mac_addr.to_string mac))
      in
      ip_ok && mac_ok
      && Ipv4_addr.equal (Ipv4_addr.read b4 off) ip
      && Mac_addr.equal (Mac_addr.read b6 off) mac)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp roundtrip" ~count:300
    QCheck.(triple arb_port arb_port arb_payload)
    (fun (sp, dp, payload) ->
      let u = Udp_wire.make ~src_port:sp ~dst_port:dp payload in
      match Udp_wire.decode ~src ~dst (Udp_wire.encode ~src ~dst u) with
      | Ok u' -> Udp_wire.equal u u'
      | Error _ -> false)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp roundtrip" ~count:300
    QCheck.(
      pair
        (quad arb_port arb_port (0 -- 0xfffffff) (0 -- 0xfffffff))
        (pair bool arb_payload))
    (fun ((sp, dp, seq, ack_n), (syn, payload)) ->
      let flags = { Tcp_wire.flag_ack with Tcp_wire.syn } in
      let t = Tcp_wire.make ~src_port:sp ~dst_port:dp ~seq ~ack_n ~flags payload in
      match Tcp_wire.decode ~src ~dst (Tcp_wire.encode ~src ~dst t) with
      | Ok t' -> Tcp_wire.equal t t'
      | Error _ -> false)

let icmp_roundtrips m =
  match Icmp_wire.decode (Icmp_wire.encode m) with
  | Ok m' -> Icmp_wire.equal m m'
  | Error _ -> false

let prop_icmp_echo_roundtrip =
  QCheck.Test.make ~name:"icmp echo roundtrip" ~count:300
    QCheck.(triple (0 -- 65535) (0 -- 65535) arb_payload)
    (fun (ident, seq, payload) ->
      icmp_roundtrips (Icmp_wire.Echo_request { ident; seq; payload }))

let prop_icmp_care_of_roundtrip =
  QCheck.Test.make ~name:"icmp care-of advert roundtrip" ~count:300
    QCheck.(triple arb_addr arb_addr (0 -- 65535))
    (fun (home, care_of, lifetime) ->
      icmp_roundtrips (Icmp_wire.Care_of_advert { home; care_of; lifetime }))

let prop_icmp_unreachable_roundtrip =
  QCheck.Test.make ~name:"icmp dest-unreachable roundtrip" ~count:300
    QCheck.(
      pair
        (oneofl
           Icmp_wire.
             [
               Net_unreachable; Host_unreachable; Protocol_unreachable;
               Port_unreachable; Fragmentation_needed; Admin_prohibited;
             ])
        arb_payload)
    (fun (code, context) ->
      icmp_roundtrips (Icmp_wire.Dest_unreachable { code; context }))

let suites =
  [
    ( "wire",
      [
        Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
        Alcotest.test_case "udp checksum covers pseudo-header" `Quick
          test_udp_checksum_covers_addresses;
        Alcotest.test_case "udp corruption detected" `Quick
          test_udp_corruption_detected;
        Alcotest.test_case "udp truncated" `Quick test_udp_truncated;
        Alcotest.test_case "udp port range" `Quick test_udp_port_range;
        Alcotest.test_case "tcp roundtrip all flags" `Quick
          test_tcp_roundtrip_all_flags;
        Alcotest.test_case "tcp seq wraps" `Quick test_tcp_seq_wraps;
        Alcotest.test_case "tcp seq bounds" `Quick test_tcp_seq_bounds;
        Alcotest.test_case "tcp corruption detected" `Quick
          test_tcp_corruption_detected;
        Alcotest.test_case "icmp roundtrips" `Quick test_icmp_roundtrips;
        Alcotest.test_case "icmp corruption detected" `Quick
          test_icmp_corruption_detected;
        Alcotest.test_case "icmp truncated" `Quick test_icmp_truncated;
        QCheck_alcotest.to_alcotest prop_udp_roundtrip;
        QCheck_alcotest.to_alcotest prop_tcp_roundtrip;
        QCheck_alcotest.to_alcotest prop_icmp_echo_roundtrip;
        Alcotest.test_case "address codecs" `Quick test_address_codecs;
        QCheck_alcotest.to_alcotest prop_address_codecs_roundtrip;
        QCheck_alcotest.to_alcotest prop_icmp_care_of_roundtrip;
        QCheck_alcotest.to_alcotest prop_icmp_unreachable_roundtrip;
      ] );
  ]
