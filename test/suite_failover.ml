(* Failure signaling and failover: ICMP error-context quoting, router
   emission rate limiting, selector fast fallback and its LRU cap,
   mobile-host degradation, and home-agent standby takeover/failback. *)

open Netsim
open Mobileip

let addr = Ipv4_addr.of_string

(* ---------- Icmp_wire context quoting ---------- *)

let arb_packet =
  QCheck.map
    (fun (((s1, s2), (d1, d2)), size) ->
      Ipv4_packet.make ~protocol:Ipv4_packet.P_udp
        ~src:(addr (Printf.sprintf "%d.%d.3.4" (1 + (s1 mod 223)) s2))
        ~dst:(addr (Printf.sprintf "%d.%d.7.8" (1 + (d1 mod 223)) d2))
        (Ipv4_packet.Udp
           (Udp_wire.make ~src_port:5000 ~dst_port:9 (Bytes.make size 'q'))))
    QCheck.(
      pair
        (pair (pair (0 -- 222) (0 -- 255)) (pair (0 -- 222) (0 -- 255)))
        (0 -- 64))

let prop_quote_context_roundtrip =
  QCheck.Test.make ~name:"quoted context names the original src/dst"
    ~count:200 arb_packet (fun pkt ->
      let ctx = Icmp_wire.quote_context (Ipv4_packet.encode pkt) in
      (* RFC 792: the IP header plus at most 8 payload bytes. *)
      Bytes.length ctx <= Ipv4_packet.header_length pkt + 8
      && Icmp_wire.context_original ctx
         = Some (pkt.Ipv4_packet.src, pkt.Ipv4_packet.dst))

let test_truncated_context () =
  let ctx =
    Icmp_wire.quote_context
      (Ipv4_packet.encode
         (Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(addr "1.2.3.4")
            ~dst:(addr "5.6.7.8")
            (Ipv4_packet.Udp
               (Udp_wire.make ~src_port:1 ~dst_port:2 Bytes.empty))))
  in
  Alcotest.(check (option reject))
    "too short to name the original" None
    (Icmp_wire.context_original (Bytes.sub ctx 0 19));
  Alcotest.(check (option reject))
    "empty context" None
    (Icmp_wire.context_original Bytes.empty)

(* ---------- selector: ICMP feedback and the LRU cap ---------- *)

let dst = addr "44.2.0.10"

let test_selector_icmp_fast_fallback () =
  let sel = Selector.create Selector.Aggressive_first in
  Alcotest.(check string) "starts aggressive" "Out-DH"
    (Grid.out_to_string (Selector.method_for sel dst));
  (* One ICMP error abandons the method immediately — no fallback_after
     accumulation of retransmission hints. *)
  Selector.report sel ~dst Selector.Icmp_error;
  Alcotest.(check string) "abandoned on first error" "Out-DE"
    (Grid.out_to_string (Selector.method_for sel dst));
  Alcotest.(check int) "one switch" 1 (Selector.switches sel ~dst);
  Alcotest.(check bool) "Out-DH remembered failed" true
    (List.exists (Grid.equal_out Grid.Out_DH)
       (Selector.failed_methods sel ~dst));
  Selector.report sel ~dst Selector.Icmp_error;
  Alcotest.(check string) "down to the floor" "Out-IE"
    (Grid.out_to_string (Selector.method_for sel dst));
  (* Out-IE is the method that always works: an error there has nothing
     below to fall back to. *)
  Selector.report sel ~dst Selector.Icmp_error;
  Alcotest.(check string) "floor holds" "Out-IE"
    (Grid.out_to_string (Selector.method_for sel dst))

let test_selector_lru_cap () =
  let d1 = addr "44.2.0.1" and d2 = addr "44.2.0.2" and d3 = addr "44.2.0.3" in
  let sel = Selector.create ~max_destinations:2 Selector.Aggressive_first in
  ignore (Selector.method_for sel d1);
  ignore (Selector.method_for sel d2);
  Selector.report sel ~dst:d2 Selector.Icmp_error;
  (* Touch d1 so d2 is the least recently used... *)
  ignore (Selector.method_for sel d1);
  (* ...and inserting d3 evicts it. *)
  ignore (Selector.method_for sel d3);
  Alcotest.(check (list string))
    "capped at two destinations"
    [ Ipv4_addr.to_string d1; Ipv4_addr.to_string d3 ]
    (List.map Ipv4_addr.to_string (Selector.known_destinations sel));
  (* The evicted destination restarts from the strategy's initial method:
     its failure memory went with it. *)
  Alcotest.(check string) "evicted destination restarts fresh" "Out-DH"
    (Grid.out_to_string (Selector.method_for sel d2));
  Alcotest.(check bool) "cap validated" true
    (try
       ignore (Selector.create ~max_destinations:0 Selector.Aggressive_first);
       false
     with Invalid_argument _ -> true)

(* ---------- router emission: rate limiting and MH consumption ---------- *)

let test_emission_rate_limited () =
  let open Scenarios in
  let topo =
    Topo.build ~ch_position:Topo.Inside_home ~filtering:Topo.ingress_only ()
  in
  let net = topo.Topo.net in
  Net.enable_error_signaling net;
  Topo.roam_static topo ();
  Mobile_host.pin_method topo.Topo.mh ~dst:topo.Topo.ch_addr
    (Some Grid.Out_DH);
  let eng = Net.engine net in
  let udp = Transport.Udp_service.get topo.Topo.mh_node in
  let t0 = Engine.now eng in
  let burst at =
    for k = 0 to 5 do
      Engine.schedule eng
        ~at:(at +. (0.05 *. float_of_int k))
        (fun () ->
          ignore
            (Transport.Udp_service.send udp ~src:topo.Topo.mh_home_addr
               ~dst:topo.Topo.ch_addr ~src_port:40020 ~dst_port:9
               (Bytes.make 8 'z')))
    done
  in
  (* Six filtered packets within the hold-down produce one error; a burst
     after the hold-down (jittered in [1, 1.25) s) produces a second. *)
  burst t0;
  burst (t0 +. 2.0);
  Net.run net;
  Alcotest.(check int) "one error per hold-down window" 2
    (Net.icmp_errors_sent net);
  (* The errors were tunneled home-agent -> MH and consumed there. *)
  Alcotest.(check bool) "mobile host consumed the feedback" true
    (Mobile_host.icmp_errors_consumed topo.Topo.mh >= 1)

(* ---------- mobile host degradation ---------- *)

let test_degradation () =
  let open Scenarios in
  let topo =
    Topo.build ~mh_retry_base:0.2 ~mh_retry_cap:0.4 ~mh_retry_limit:2 ()
  in
  let mh = topo.Topo.mh in
  Alcotest.(check bool) "encapsulating methods rejected" true
    (try
       Mobile_host.set_degradation mh (Some Grid.Out_IE);
       false
     with Invalid_argument _ -> true);
  Mobile_host.set_degradation mh (Some Grid.Out_DH);
  Topo.roam_static topo ();
  Alcotest.(check bool) "registered, not degraded" false
    (Mobile_host.degraded mh);
  (* Kill the home agent and exhaust the retry budget. *)
  Home_agent.crash topo.Topo.ha;
  Mobile_host.reregister mh ();
  Topo.run topo;
  Alcotest.(check bool) "registration abandoned" false
    (Mobile_host.registered mh);
  Alcotest.(check bool) "degraded" true (Mobile_host.degraded mh);
  Alcotest.(check string) "falls back to the direct method" "Out-DH"
    (Grid.out_to_string
       (Mobile_host.out_method_for mh ~dst:topo.Topo.ch_addr));
  (* A successful registration clears the fallback. *)
  Home_agent.restart topo.Topo.ha;
  Mobile_host.reregister mh ();
  Topo.run topo;
  Alcotest.(check bool) "re-registered" true (Mobile_host.registered mh);
  Alcotest.(check bool) "fallback cleared" false (Mobile_host.degraded mh);
  Alcotest.(check string) "back to the default method" "Out-IE"
    (Grid.out_to_string
       (Mobile_host.out_method_for mh ~dst:topo.Topo.ch_addr))

(* ---------- home-agent standby: takeover and failback ---------- *)

let proxy_entries ha =
  List.sort Ipv4_addr.compare (Net.proxy_arp_entries (Home_agent.node ha))

let test_standby_takeover_and_failback () =
  let open Scenarios in
  let topo =
    Topo.build ~with_standby_ha:true ~standby_detect_interval:0.5
      ~standby_detect_timeout:1.0 ~mh_lifetime:120 ()
  in
  let net = topo.Topo.net in
  let eng = Net.engine net in
  let primary = topo.Topo.ha in
  let standby = Option.get topo.Topo.ha_standby in
  Topo.roam_static topo ();
  (* Soft-state replication: the standby already holds the replica but is
     inert on the data plane. *)
  Alcotest.(check int) "replica seeded" 1
    (List.length (Home_agent.bindings standby));
  Alcotest.(check bool) "passive standby" false
    (Home_agent.is_standby_active standby);
  Alcotest.(check (list string)) "no proxy footprint while passive" []
    (List.map Ipv4_addr.to_string (proxy_entries standby));
  let t0 = Engine.now eng in
  Engine.schedule eng ~at:(t0 +. 0.6) (fun () -> Home_agent.crash primary);
  (* A probe sent after the detection timeout must reach the MH via the
     standby's takeover tunnel. *)
  let delivered = ref false in
  let mh_udp = Transport.Udp_service.get topo.Topo.mh_node in
  Transport.Udp_service.listen mh_udp ~port:40021 (fun _ _ ->
      delivered := true);
  let ch_udp = Transport.Udp_service.get topo.Topo.ch_node in
  Engine.schedule eng ~at:(t0 +. 4.0) (fun () ->
      ignore
        (Transport.Udp_service.send ch_udp ~dst:topo.Topo.mh_home_addr
           ~src_port:40022 ~dst_port:40021 (Bytes.make 8 'y')));
  Net.run net;
  Alcotest.(check bool) "standby took over" true
    (Home_agent.is_standby_active standby);
  Alcotest.(check int) "one takeover" 1 (Home_agent.takeovers standby);
  (match Home_agent.last_failover standby with
  | None -> Alcotest.fail "no failover latency recorded"
  | Some d ->
      Alcotest.(check bool) "detection latency >= timeout" true (d >= 1.0));
  Alcotest.(check bool) "probe delivered through the standby" true !delivered;
  Alcotest.(check (list string)) "crashed primary proxies nothing" []
    (List.map Ipv4_addr.to_string (proxy_entries primary));
  let captured = proxy_entries standby in
  Alcotest.(check bool) "standby proxies the mobile host's home" true
    (List.exists (Ipv4_addr.equal topo.Topo.mh_home_addr) captured);
  Alcotest.(check bool) "standby proxies the primary's service address" true
    (List.exists (Ipv4_addr.equal (Home_agent.address primary)) captured);
  (* Failback: the standby stands down first, then the primary re-claims —
     never both proxying the same address. *)
  Home_agent.restart primary;
  Alcotest.(check bool) "standby stood down" false
    (Home_agent.is_standby_active standby);
  Alcotest.(check (list string)) "standby released every capture" []
    (List.map Ipv4_addr.to_string (proxy_entries standby));
  Alcotest.(check bool) "binding handed back to the primary" true
    (Home_agent.binding_for primary topo.Topo.mh_home_addr <> None);
  Alcotest.(check bool) "primary proxies the mobile host again" true
    (List.exists (Ipv4_addr.equal topo.Topo.mh_home_addr)
       (proxy_entries primary));
  Net.run net

(* The liveness poll is a background event armed at pairing: it outlasts
   any settling run and any delay, so a crash long after the world settled
   is still covered. *)
let test_standby_covers_late_crash () =
  let open Scenarios in
  let topo =
    Topo.build ~with_standby_ha:true ~standby_detect_interval:0.5
      ~standby_detect_timeout:1.0 ()
  in
  let net = topo.Topo.net in
  let standby = Option.get topo.Topo.ha_standby in
  Topo.roam_static topo ();
  Topo.run topo;
  let t0 = Net.now net in
  let eng = Net.engine net in
  Engine.schedule eng ~at:(t0 +. 40.0) (fun () ->
      Home_agent.crash topo.Topo.ha);
  let delivered = ref false in
  let mh_udp = Transport.Udp_service.get topo.Topo.mh_node in
  Transport.Udp_service.listen mh_udp ~port:40023 (fun _ _ ->
      delivered := true);
  let ch_udp = Transport.Udp_service.get topo.Topo.ch_node in
  Engine.schedule eng ~at:(t0 +. 43.0) (fun () ->
      ignore
        (Transport.Udp_service.send ch_udp ~dst:topo.Topo.mh_home_addr
           ~src_port:40024 ~dst_port:40023 (Bytes.make 8 'z')));
  Net.run ~until:(t0 +. 45.0) net;
  Alcotest.(check bool) "standby took over" true
    (Home_agent.is_standby_active standby);
  Alcotest.(check int) "one takeover" 1 (Home_agent.takeovers standby);
  Alcotest.(check bool) "probe delivered through the standby" true !delivered

let test_pair_validation () =
  let open Scenarios in
  let topo =
    Topo.build ~with_standby_ha:true ~standby_detect_interval:0.5
      ~standby_detect_timeout:1.0 ()
  in
  let primary = topo.Topo.ha in
  let standby = Option.get topo.Topo.ha_standby in
  Alcotest.(check bool) "double pairing rejected" true
    (try
       Home_agent.pair ~primary ~standby ();
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "failover",
      [
        QCheck_alcotest.to_alcotest prop_quote_context_roundtrip;
        Alcotest.test_case "truncated context" `Quick test_truncated_context;
        Alcotest.test_case "selector icmp fast fallback" `Quick
          test_selector_icmp_fast_fallback;
        Alcotest.test_case "selector lru cap" `Quick test_selector_lru_cap;
        Alcotest.test_case "emission rate limited" `Quick
          test_emission_rate_limited;
        Alcotest.test_case "degradation ladder" `Quick test_degradation;
        Alcotest.test_case "standby takeover and failback" `Quick
          test_standby_takeover_and_failback;
        Alcotest.test_case "pair validation" `Quick test_pair_validation;
        Alcotest.test_case "standby covers a crash long after settling"
          `Quick test_standby_covers_late_crash;
      ] );
  ]
