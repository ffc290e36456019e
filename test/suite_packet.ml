(* IPv4 packet codec: every payload kind, nesting, sizes, fragments,
   corruption, and encode/decode property tests. *)

open Netsim

let a = Ipv4_addr.of_string
let src = a "36.1.0.5"
let dst = a "44.2.0.10"
let coa = a "131.7.0.100"
let ha = a "36.1.0.2"

let udp_payload n =
  Ipv4_packet.Udp (Udp_wire.make ~src_port:5000 ~dst_port:9 (Bytes.make n 'u'))

let base n = Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src ~dst (udp_payload n)

let roundtrip pkt =
  match Ipv4_packet.decode (Ipv4_packet.encode pkt) with
  | Ok pkt' -> pkt'
  | Error e -> Alcotest.failf "decode failed: %s" e

let check_roundtrip name pkt =
  Alcotest.(check bool) name true (Ipv4_packet.equal pkt (roundtrip pkt))

let test_roundtrip_raw () =
  check_roundtrip "raw"
    (Ipv4_packet.make ~protocol:(Ipv4_packet.P_other 99) ~src ~dst
       (Ipv4_packet.Raw (Bytes.of_string "opaque")))

let test_roundtrip_udp () = check_roundtrip "udp" (base 100)

let test_roundtrip_tcp () =
  check_roundtrip "tcp"
    (Ipv4_packet.make ~protocol:Ipv4_packet.P_tcp ~src ~dst
       (Ipv4_packet.Tcp
          (Tcp_wire.make ~src_port:1 ~dst_port:2 ~seq:3 ~ack_n:4
             ~flags:Tcp_wire.flag_ack (Bytes.of_string "seg"))))

let test_roundtrip_icmp () =
  check_roundtrip "icmp"
    (Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src ~dst
       (Ipv4_packet.Icmp
          (Icmp_wire.Echo_request { ident = 1; seq = 2; payload = Bytes.create 8 })))

let test_roundtrip_tunnels () =
  let inner = base 64 in
  check_roundtrip "ipip"
    (Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:coa ~dst:ha inner);
  check_roundtrip "gre"
    (Mobileip.Encap.wrap Mobileip.Encap.Gre ~src:coa ~dst:ha inner);
  check_roundtrip "minimal"
    (Mobileip.Encap.wrap Mobileip.Encap.Minimal ~src:coa ~dst:ha inner)

let test_roundtrip_nested_tunnel () =
  (* A tunnel in a tunnel (e.g. MH reverse tunnel of an already
     encapsulated packet). *)
  let inner = base 32 in
  let once = Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:coa ~dst ~ttl:32 inner in
  let twice = Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:coa ~dst:ha once in
  check_roundtrip "double encapsulation" twice;
  Alcotest.(check int) "40 bytes of overhead"
    (Ipv4_packet.byte_length inner + 40)
    (Ipv4_packet.byte_length twice)

let test_byte_length_matches_encode () =
  List.iter
    (fun pkt ->
      Alcotest.(check int) "byte_length = encoded length"
        (Bytes.length (Ipv4_packet.encode pkt))
        (Ipv4_packet.byte_length pkt))
    [
      base 0;
      base 1472;
      Mobileip.Encap.wrap Mobileip.Encap.Minimal ~src:coa ~dst:ha (base 100);
      Mobileip.Encap.wrap Mobileip.Encap.Gre ~src:coa ~dst:ha (base 100);
    ]

let test_overhead_constants () =
  let inner = base 256 in
  let check mode expect =
    let outer = Mobileip.Encap.wrap mode ~src:coa ~dst:ha inner in
    Alcotest.(check int)
      (Mobileip.Encap.mode_to_string mode)
      expect
      (Ipv4_packet.byte_length outer - Ipv4_packet.byte_length inner)
  in
  check Mobileip.Encap.Ipip 20;
  check Mobileip.Encap.Minimal 12;
  check Mobileip.Encap.Gre 24

let test_header_checksum_corruption () =
  let wire = Ipv4_packet.encode (base 40) in
  Bytes.set wire 8 '\x01' (* TTL *);
  match Ipv4_packet.decode wire with
  | Error e ->
      Alcotest.(check bool) "mentions checksum" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "header corruption not detected"

let test_ttl_decrement () =
  let pkt = Ipv4_packet.make ~ttl:2 ~protocol:Ipv4_packet.P_udp ~src ~dst (udp_payload 4) in
  match Ipv4_packet.decrement_ttl pkt with
  | exception Ipv4_packet.Ttl_expired ->
      Alcotest.fail "ttl 2 should survive one hop"
  | p -> (
      Alcotest.(check int) "ttl 1" 1 p.Ipv4_packet.ttl;
      match Ipv4_packet.decrement_ttl p with
      | exception Ipv4_packet.Ttl_expired -> ()
      | _ -> Alcotest.fail "ttl must expire at 1")

let test_fragment_payload_stays_raw () =
  let pkt = base 100 in
  let frag = { pkt with Ipv4_packet.more_fragments = true } in
  match Ipv4_packet.decode (Ipv4_packet.encode frag) with
  | Ok p -> (
      match p.Ipv4_packet.payload with
      | Ipv4_packet.Raw _ -> ()
      | _ -> Alcotest.fail "fragment payload must not be parsed")
  | Error e -> Alcotest.fail e

let test_reparse_payload () =
  let pkt = base 50 in
  let wire = Ipv4_packet.encode pkt in
  let hlen = Ipv4_packet.header_length pkt in
  let rawed =
    {
      pkt with
      Ipv4_packet.payload =
        Ipv4_packet.Raw (Bytes.sub wire hlen (Bytes.length wire - hlen));
    }
  in
  let reparsed = Ipv4_packet.reparse_payload rawed in
  Alcotest.(check bool) "reparsed equals original" true
    (Ipv4_packet.equal pkt reparsed)

let test_options_encoded () =
  let options = Bytes.make 8 '\001' in
  let pkt =
    Ipv4_packet.make ~options ~protocol:Ipv4_packet.P_udp ~src ~dst
      (udp_payload 10)
  in
  Alcotest.(check int) "header length" 28 (Ipv4_packet.header_length pkt);
  check_roundtrip "with options" pkt

let test_options_validated () =
  Alcotest.check_raises "odd options"
    (Invalid_argument
       "Ipv4_packet.make: options must be <= 40 bytes, multiple of 4")
    (fun () ->
      ignore
        (Ipv4_packet.make ~options:(Bytes.create 3)
           ~protocol:Ipv4_packet.P_udp ~src ~dst (udp_payload 1)))

let test_protocol_numbers () =
  List.iter
    (fun (proto, n) ->
      Alcotest.(check int)
        (Format.asprintf "%a" Ipv4_packet.pp_protocol proto)
        n
        (Ipv4_packet.protocol_to_int proto);
      Alcotest.(check bool) "inverse" true
        (Ipv4_packet.protocol_of_int n = proto))
    [
      (Ipv4_packet.P_icmp, 1); (Ipv4_packet.P_ipip, 4); (Ipv4_packet.P_tcp, 6);
      (Ipv4_packet.P_udp, 17); (Ipv4_packet.P_gre, 47);
      (Ipv4_packet.P_minimal, 55); (Ipv4_packet.P_other 200, 200);
    ]

(* ---- properties ---- *)

let arb_addr =
  QCheck.map
    (fun (x, y, z, w) -> Ipv4_addr.of_octets x y z w)
    QCheck.(quad (0 -- 255) (0 -- 255) (0 -- 255) (0 -- 255))

let arb_packet =
  QCheck.map
    (fun ((s, d, ttl, tos), (ident, body)) ->
      Ipv4_packet.make ~tos ~ident ~ttl ~protocol:Ipv4_packet.P_udp ~src:s
        ~dst:d
        (Ipv4_packet.Udp
           (Udp_wire.make ~src_port:1000 ~dst_port:2000 (Bytes.of_string body))))
    QCheck.(
      pair
        (quad arb_addr arb_addr (1 -- 255) (0 -- 255))
        (pair (0 -- 65535) (string_of_size Gen.(0 -- 400))))

let prop_encode_decode =
  QCheck.Test.make ~name:"ipv4 encode/decode roundtrip" ~count:300 arb_packet
    (fun pkt ->
      match Ipv4_packet.decode (Ipv4_packet.encode pkt) with
      | Ok pkt' -> Ipv4_packet.equal pkt pkt'
      | Error _ -> false)

let prop_tunnel_roundtrip =
  QCheck.Test.make ~name:"encap wrap/unwrap is identity (all modes)"
    ~count:200
    QCheck.(pair arb_packet (oneofl Mobileip.Encap.all_modes))
    (fun (pkt, mode) ->
      let outer = Mobileip.Encap.wrap mode ~src:coa ~dst:ha pkt in
      match Mobileip.Encap.unwrap outer with
      | Some (m, inner) ->
          m = mode
          &&
          (* Minimal encapsulation only preserves protocol + addresses +
             payload; the full-header modes preserve everything. *)
          (match mode with
          | Mobileip.Encap.Minimal ->
              Ipv4_addr.equal inner.Ipv4_packet.src pkt.Ipv4_packet.src
              && Ipv4_addr.equal inner.Ipv4_packet.dst pkt.Ipv4_packet.dst
              && inner.Ipv4_packet.protocol = pkt.Ipv4_packet.protocol
          | Mobileip.Encap.Ipip | Mobileip.Encap.Gre ->
              Ipv4_packet.equal inner pkt)
      | None -> false)

let prop_wire_tunnel_roundtrip =
  QCheck.Test.make ~name:"encap survives the wire (encode+decode)" ~count:200
    QCheck.(pair arb_packet (oneofl Mobileip.Encap.all_modes))
    (fun (pkt, mode) ->
      let outer = Mobileip.Encap.wrap mode ~src:coa ~dst:ha pkt in
      match Ipv4_packet.decode (Ipv4_packet.encode outer) with
      | Ok outer' -> Ipv4_packet.equal outer outer'
      | Error _ -> false)

let test_header_checksum_matches_encode () =
  List.iter
    (fun pkt ->
      Alcotest.(check int) "header_checksum = wire checksum field"
        (Bytes.get_uint16_be (Ipv4_packet.encode pkt) 10)
        (Ipv4_packet.header_checksum pkt))
    [
      base 0;
      base 100;
      Ipv4_packet.make
        ~options:(Bytes.make 8 '\001')
        ~protocol:Ipv4_packet.P_udp ~src ~dst (udp_payload 10);
      Mobileip.Encap.wrap Mobileip.Encap.Gre ~src:coa ~dst:ha (base 64);
    ]

let prop_header_checksum_matches_encode =
  QCheck.Test.make ~name:"header_checksum = encode's checksum field"
    ~count:300 arb_packet (fun pkt ->
      Ipv4_packet.header_checksum pkt
      = Bytes.get_uint16_be (Ipv4_packet.encode pkt) 10)

let prop_ttl_decrement_checksum =
  QCheck.Test.make ~name:"rfc 1624 ttl decrement = recomputed checksum"
    ~count:300 arb_packet (fun pkt ->
      QCheck.assume (pkt.Ipv4_packet.ttl > 1);
      let csum = Ipv4_packet.header_checksum pkt in
      match Ipv4_packet.decrement_ttl pkt with
      | exception Ipv4_packet.Ttl_expired -> false
      | p ->
          Ipv4_packet.decrement_ttl_checksum ~checksum:csum pkt
          = Ipv4_packet.header_checksum p)

let suites =
  [
    ( "packet",
      [
        Alcotest.test_case "roundtrip raw" `Quick test_roundtrip_raw;
        Alcotest.test_case "roundtrip udp" `Quick test_roundtrip_udp;
        Alcotest.test_case "roundtrip tcp" `Quick test_roundtrip_tcp;
        Alcotest.test_case "roundtrip icmp" `Quick test_roundtrip_icmp;
        Alcotest.test_case "roundtrip tunnels" `Quick test_roundtrip_tunnels;
        Alcotest.test_case "nested tunnel" `Quick test_roundtrip_nested_tunnel;
        Alcotest.test_case "byte_length = encode length" `Quick
          test_byte_length_matches_encode;
        Alcotest.test_case "overhead constants 20/12/24" `Quick
          test_overhead_constants;
        Alcotest.test_case "header corruption detected" `Quick
          test_header_checksum_corruption;
        Alcotest.test_case "ttl decrement" `Quick test_ttl_decrement;
        Alcotest.test_case "fragment stays raw" `Quick
          test_fragment_payload_stays_raw;
        Alcotest.test_case "reparse payload" `Quick test_reparse_payload;
        Alcotest.test_case "options encoded" `Quick test_options_encoded;
        Alcotest.test_case "options validated" `Quick test_options_validated;
        Alcotest.test_case "protocol numbers" `Quick test_protocol_numbers;
        Alcotest.test_case "header_checksum matches encode" `Quick
          test_header_checksum_matches_encode;
        QCheck_alcotest.to_alcotest prop_encode_decode;
        QCheck_alcotest.to_alcotest prop_header_checksum_matches_encode;
        QCheck_alcotest.to_alcotest prop_ttl_decrement_checksum;
        QCheck_alcotest.to_alcotest prop_tunnel_roundtrip;
        QCheck_alcotest.to_alcotest prop_wire_tunnel_roundtrip;
      ] );
  ]
