(* Registration protocol: codecs, authentication, sequence handling at the
   home agent, lifetime clamping, deregistration. *)

open Netsim

let a = Ipv4_addr.of_string

let req =
  {
    Mobileip.Registration.home = a "36.1.0.5";
    home_agent = a "36.1.0.2";
    care_of = a "131.7.0.100";
    lifetime = 300;
    sequence = 7;
  }

let test_request_roundtrip () =
  let wire = Mobileip.Registration.encode_request ~key:"k1" req in
  match Mobileip.Registration.decode_request ~key:"k1" wire with
  | Ok r -> Alcotest.(check bool) "equal" true (r = req)
  | Error e -> Alcotest.fail e

let test_request_wrong_key () =
  let wire = Mobileip.Registration.encode_request ~key:"k1" req in
  match Mobileip.Registration.decode_request ~key:"k2" wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let test_request_tamper_detected () =
  let wire = Mobileip.Registration.encode_request ~key:"k1" req in
  (* Flip a bit in the care-of address field. *)
  Bytes.set wire 10 (Char.chr (Char.code (Bytes.get wire 10) lxor 1));
  match Mobileip.Registration.decode_request ~key:"k1" wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampering not detected"

(* Known digests, computed independently of the implementation (FNV-1a
   32-bit fold of key..body..key).  These pin the wire format: any change
   to the mixing, masking or key placement breaks them. *)
let test_authenticator_known_vectors () =
  let auth key body =
    Mobileip.Registration.authenticator ~key (Bytes.of_string body)
  in
  Alcotest.(check int) "empty body, key=secret" 0xaf88c2d5 (auth "secret" "");
  Alcotest.(check int) "abc, key=secret" 0xa7d8fa87 (auth "secret" "abc");
  Alcotest.(check int) "mobile-ip, key=k1" 0x222985f3 (auth "k1" "mobile-ip");
  (* Regression for the 31-bit mask bug: this digest has bit 31 set, which
     the old [land 0x7fffffff] mixing mask pinned to zero (halving the
     digest keyspace the 32-bit wire field is supposed to carry). *)
  let top = auth "secret" "\x00" in
  Alcotest.(check int) "top-bit digest value" 0xf5315863 top;
  Alcotest.(check bool) "bit 31 reachable" true (top land 0x80000000 <> 0)

let test_top_bit_digest_survives_wire () =
  (* The standard test request with sequence 0 digests (key "k1") to
     0xf7f73aa2 — top bit set.  It must round-trip through the 32-bit
     wire field and still verify. *)
  let req0 = { req with Mobileip.Registration.sequence = 0 } in
  let wire = Mobileip.Registration.encode_request ~key:"k1" req0 in
  let auth_on_wire =
    (Char.code (Bytes.get wire 17) lsl 24)
    lor (Char.code (Bytes.get wire 18) lsl 16)
    lor (Char.code (Bytes.get wire 19) lsl 8)
    lor Char.code (Bytes.get wire 20)
  in
  Alcotest.(check int) "wire digest" 0xf7f73aa2 auth_on_wire;
  match Mobileip.Registration.decode_request ~key:"k1" wire with
  | Ok r -> Alcotest.(check bool) "roundtrips" true (r = req0)
  | Error e -> Alcotest.fail e

let test_reply_roundtrip () =
  let reply =
    {
      Mobileip.Registration.r_home = a "36.1.0.5";
      r_care_of = a "131.7.0.100";
      r_lifetime = 120;
      r_sequence = 7;
      r_code = Mobileip.Types.Reg_accepted;
    }
  in
  let wire = Mobileip.Registration.encode_reply ~key:"k" reply in
  match Mobileip.Registration.decode_reply ~key:"k" wire with
  | Ok r -> Alcotest.(check bool) "equal" true (r = reply)
  | Error e -> Alcotest.fail e

let test_peek_functions () =
  let wire = Mobileip.Registration.encode_request ~key:"whatever" req in
  Alcotest.(check bool) "is_request" true (Mobileip.Registration.is_request wire);
  Alcotest.(check bool) "not is_reply" false (Mobileip.Registration.is_reply wire);
  Alcotest.(check (option string)) "peek home" (Some "36.1.0.5")
    (Option.map Ipv4_addr.to_string (Mobileip.Registration.peek_request_home wire));
  Alcotest.(check (option string)) "peek ha" (Some "36.1.0.2")
    (Option.map Ipv4_addr.to_string
       (Mobileip.Registration.peek_request_home_agent wire))

let test_request_reply_distinguished () =
  let wire = Mobileip.Registration.encode_request ~key:"k" req in
  match Mobileip.Registration.decode_reply ~key:"k" wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request decoded as reply"

(* ---- home-agent behaviour, driven through the wire ---- *)

let send_raw topo payload =
  let udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
  ignore
    (Transport.Udp_service.send udp
       ~src:
         (Option.get
            (Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh))
       ~dst:(Mobileip.Home_agent.address topo.Scenarios.Topo.ha)
       ~src_port:Transport.Well_known.mip_registration
       ~dst_port:Transport.Well_known.mip_registration payload);
  Scenarios.Topo.run topo

let test_stale_sequence_denied () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  let current =
    match Mobileip.Home_agent.bindings ha with
    | [ b ] -> b
    | _ -> Alcotest.fail "expected one binding"
  in
  let denied_before = Mobileip.Home_agent.registrations_denied ha in
  (* Replay an old sequence number: must be rejected, binding unchanged. *)
  let stale =
    {
      Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
      home_agent = Mobileip.Home_agent.address ha;
      care_of = a "131.7.0.250";
      lifetime = 300;
      sequence = current.Mobileip.Types.sequence;
    }
  in
  send_raw topo (Mobileip.Registration.encode_request ~key:"secret" stale);
  Alcotest.(check int) "denied incremented" (denied_before + 1)
    (Mobileip.Home_agent.registrations_denied ha);
  (match Mobileip.Home_agent.bindings ha with
  | [ b ] ->
      Alcotest.(check string) "care-of unchanged" "131.7.0.100"
        (Ipv4_addr.to_string b.Mobileip.Types.care_of)
  | _ -> Alcotest.fail "binding lost")

let test_lifetime_clamped () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  let fresh =
    {
      Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
      home_agent = Mobileip.Home_agent.address ha;
      care_of = a "131.7.0.100";
      lifetime = 65000;
      sequence = 100;
    }
  in
  send_raw topo (Mobileip.Registration.encode_request ~key:"secret" fresh);
  match Mobileip.Home_agent.bindings ha with
  | [ b ] ->
      Alcotest.(check (float 0.01)) "granted max 600s" 600.0
        b.Mobileip.Types.lifetime
  | _ -> Alcotest.fail "no binding"

let test_newer_sequence_updates_coa () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  let update =
    {
      Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
      home_agent = Mobileip.Home_agent.address ha;
      care_of = a "131.7.0.222";
      lifetime = 300;
      sequence = 99;
    }
  in
  send_raw topo (Mobileip.Registration.encode_request ~key:"secret" update);
  match Mobileip.Home_agent.bindings ha with
  | [ b ] ->
      Alcotest.(check string) "care-of updated" "131.7.0.222"
        (Ipv4_addr.to_string b.Mobileip.Types.care_of)
  | _ -> Alcotest.fail "no binding"

let test_retransmitted_request_idempotent () =
  (* A lost reply makes the MH resend the same sequence number; the HA
     must accept the retransmission rather than deny it as stale
     (regression: discovered by the lossy-cellular scenario). *)
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  let current =
    match Mobileip.Home_agent.bindings ha with
    | [ b ] -> b
    | _ -> Alcotest.fail "expected one binding"
  in
  let accepted_before = Mobileip.Home_agent.registrations_accepted ha in
  let replay =
    {
      Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
      home_agent = Mobileip.Home_agent.address ha;
      care_of = current.Mobileip.Types.care_of;
      lifetime = 300;
      sequence = current.Mobileip.Types.sequence;
    }
  in
  send_raw topo (Mobileip.Registration.encode_request ~key:"secret" replay);
  Alcotest.(check int) "accepted again" (accepted_before + 1)
    (Mobileip.Home_agent.registrations_accepted ha);
  Alcotest.(check int) "still exactly one binding" 1
    (List.length (Mobileip.Home_agent.bindings ha))

let test_binding_lifetime_lazy_expiry () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  Alcotest.(check bool) "bound" true
    (Mobileip.Home_agent.binding_for ha topo.Scenarios.Topo.mh_home_addr <> None);
  (* Push simulated time past the lifetime and consult again. *)
  let eng = Net.engine topo.Scenarios.Topo.net in
  Engine.after eng 1000.0 (fun () -> ());
  Net.run topo.Scenarios.Topo.net;
  Alcotest.(check bool) "expired lazily" true
    (Mobileip.Home_agent.binding_for ha topo.Scenarios.Topo.mh_home_addr = None)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"registration request codec roundtrip" ~count:200
    QCheck.(
      pair
        (quad (0 -- 255) (0 -- 255) (0 -- 65535) (0 -- 65535))
        (string_of_size Gen.(1 -- 16)))
    (fun ((x, y, lifetime, sequence), key) ->
      let r =
        {
          Mobileip.Registration.home = Ipv4_addr.of_octets 36 x y 5;
          home_agent = Ipv4_addr.of_octets 36 1 0 2;
          care_of = Ipv4_addr.of_octets 131 y x 9;
          lifetime;
          sequence;
        }
      in
      match
        Mobileip.Registration.decode_request ~key
          (Mobileip.Registration.encode_request ~key r)
      with
      | Ok r' -> r = r'
      | Error _ -> false)

let prop_reply_codec_roundtrip =
  let arb_addr = QCheck.map Ipv4_addr.of_int32 QCheck.int32 in
  QCheck.Test.make ~name:"registration reply codec roundtrip" ~count:200
    QCheck.(
      pair
        (quad arb_addr arb_addr (0 -- 65535) (0 -- 65535))
        (pair
           (oneofl
              Mobileip.Types.[ Reg_accepted; Reg_denied_auth; Reg_denied_stale ])
           (string_of_size Gen.(1 -- 16))))
    (fun ((r_home, r_care_of, r_lifetime, r_sequence), (r_code, key)) ->
      let r =
        {
          Mobileip.Registration.r_home;
          r_care_of;
          r_lifetime;
          r_sequence;
          r_code;
        }
      in
      match
        Mobileip.Registration.decode_reply ~key
          (Mobileip.Registration.encode_reply ~key r)
      with
      | Ok r' -> r = r'
      | Error _ -> false)

(* ---- 16-bit sequence wrap ---- *)

let test_sequence_serial_order () =
  let older a b = Mobileip.Registration.sequence_older a ~than:b in
  Alcotest.(check bool) "1 older than 2" true (older 1 2);
  Alcotest.(check bool) "2 not older than 1" false (older 2 1);
  Alcotest.(check bool) "equal is not older" false (older 5 5);
  Alcotest.(check bool) "65535 older than 0" true (older 65535 0);
  Alcotest.(check bool) "0 not older than 65535" false (older 0 65535);
  Alcotest.(check int) "65535 is followed by 0" 0
    (Mobileip.Registration.next_sequence 65535)

let test_home_agent_sequence_wrap () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  let register ~care_of sequence =
    send_raw topo
      (Mobileip.Registration.encode_request ~key:"secret"
         {
           Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
           home_agent = Mobileip.Home_agent.address ha;
           care_of = a care_of;
           lifetime = 300;
           sequence;
         })
  in
  let care_of () =
    match Mobileip.Home_agent.bindings ha with
    | [ b ] -> Ipv4_addr.to_string b.Mobileip.Types.care_of
    | _ -> Alcotest.fail "expected one binding"
  in
  (* Walk the sequence up in steps under half the space, then across. *)
  List.iter (fun s -> register ~care_of:"131.7.0.201" s) [ 30000; 60000; 65535 ];
  Alcotest.(check string) "65535 accepted" "131.7.0.201" (care_of ());
  register ~care_of:"131.7.0.202" 0;
  Alcotest.(check string) "0 after 65535 accepted" "131.7.0.202" (care_of ());
  let denied = Mobileip.Home_agent.registrations_denied ha in
  register ~care_of:"131.7.0.201" 65535;
  Alcotest.(check int) "replayed 65535 is stale" (denied + 1)
    (Mobileip.Home_agent.registrations_denied ha);
  Alcotest.(check string) "binding kept" "131.7.0.202" (care_of ())

let test_mobile_host_sequence_wrap () =
  (* 65 537 refreshes take the host's sequence past 65535 and back to 0;
     every one must still be answered and accepted. *)
  let topo = Scenarios.Topo.build ~backbone_hops:2 () in
  Net.set_tracing topo.Scenarios.Topo.net false;
  Scenarios.Topo.roam_static topo ();
  let mh = topo.Scenarios.Topo.mh in
  let failed = ref 0 in
  for _ = 1 to 65_537 do
    Mobileip.Mobile_host.reregister mh
      ~on_registered:(fun ok -> if not ok then incr failed)
      ();
    Scenarios.Topo.run topo
  done;
  Alcotest.(check int) "no refresh failed" 0 !failed;
  Alcotest.(check int) "none denied" 0
    (Mobileip.Home_agent.registrations_denied topo.Scenarios.Topo.ha);
  Alcotest.(check bool) "still registered" true
    (Mobileip.Mobile_host.registered mh)

let suites =
  [
    ( "registration",
      [
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "wrong key rejected" `Quick test_request_wrong_key;
        Alcotest.test_case "tampering detected" `Quick
          test_request_tamper_detected;
        Alcotest.test_case "authenticator known vectors" `Quick
          test_authenticator_known_vectors;
        Alcotest.test_case "top-bit digest survives the wire" `Quick
          test_top_bit_digest_survives_wire;
        Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
        Alcotest.test_case "peek functions" `Quick test_peek_functions;
        Alcotest.test_case "request/reply distinguished" `Quick
          test_request_reply_distinguished;
        Alcotest.test_case "stale sequence denied" `Quick
          test_stale_sequence_denied;
        Alcotest.test_case "lifetime clamped" `Quick test_lifetime_clamped;
        Alcotest.test_case "newer sequence updates coa" `Quick
          test_newer_sequence_updates_coa;
        Alcotest.test_case "retransmitted request idempotent" `Quick
          test_retransmitted_request_idempotent;
        Alcotest.test_case "binding lazy expiry" `Quick
          test_binding_lifetime_lazy_expiry;
        Alcotest.test_case "sequence serial order" `Quick
          test_sequence_serial_order;
        Alcotest.test_case "home agent sequence wrap" `Quick
          test_home_agent_sequence_wrap;
        Alcotest.test_case "mobile host sequence wrap" `Quick
          test_mobile_host_sequence_wrap;
        QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        QCheck_alcotest.to_alcotest prop_reply_codec_roundtrip;
      ] );
  ]
