(* Lossy links, registration keepalive, the cellular attachment, and the
   metrics helpers. *)

open Netsim

let a = Ipv4_addr.of_string
let p = Ipv4_addr.Prefix.of_string

let test_loss_is_deterministic () =
  let run_once () =
    let net = Net.create () in
    let s = Net.add_host net "s" in
    let d = Net.add_host net "d" in
    let _ =
      Net.p2p net ~loss:0.3 ~loss_seed:42 ~prefix:(p "10.0.0.0/30")
        (s, "if0", a "10.0.0.1") (d, "if0", a "10.0.0.2")
    in
    let udp_d = Transport.Udp_service.get d in
    let got = ref 0 in
    Transport.Udp_service.listen udp_d ~port:7 (fun _ _ -> incr got);
    let udp_s = Transport.Udp_service.get s in
    for i = 0 to 49 do
      ignore
        (Transport.Udp_service.send udp_s ~dst:(a "10.0.0.2")
           ~src_port:(48000 + i) ~dst_port:7 (Bytes.make 16 'z'))
    done;
    Net.run net;
    !got
  in
  let first = run_once () in
  let second = run_once () in
  Alcotest.(check int) "same seed, same outcome" first second;
  Alcotest.(check bool)
    (Printf.sprintf "roughly 30%% lost (got %d/50)" first)
    true
    (first > 25 && first < 45)

let test_loss_drops_traced () =
  let net = Net.create () in
  let s = Net.add_host net "s" in
  let d = Net.add_host net "d" in
  let _ =
    Net.p2p net ~loss:0.5 ~loss_seed:7 ~prefix:(p "10.0.0.0/30")
      (s, "if0", a "10.0.0.1") (d, "if0", a "10.0.0.2")
  in
  let udp_s = Transport.Udp_service.get s in
  for i = 0 to 19 do
    ignore
      (Transport.Udp_service.send udp_s ~dst:(a "10.0.0.2")
         ~src_port:(48100 + i) ~dst_port:7 (Bytes.make 16 'z'))
  done;
  Net.run net;
  let losses =
    List.assoc_opt Trace.Link_loss
      (Netobs.Trace_stats.drops_by_reason (Net.trace net))
  in
  Alcotest.(check bool) "link-loss drops recorded" true
    (match losses with Some n -> n > 0 | None -> false)

let test_loss_rate_validated () =
  let net = Net.create () in
  let s = Net.add_host net "s" in
  let d = Net.add_host net "d" in
  Alcotest.check_raises "rate 1.0 rejected"
    (Invalid_argument "Net: loss rate must be < 1.0") (fun () ->
      ignore
        (Net.p2p net ~loss:1.0 ~prefix:(p "10.0.0.0/30")
           (s, "if0", a "10.0.0.1") (d, "if0", a "10.0.0.2")))

let test_tcp_survives_lossy_path () =
  (* Retransmission makes a 20%-lossy path usable — the reliability
     argument the paper leans on for the transition window. *)
  let net = Net.create () in
  let c = Net.add_host net "c" in
  let s = Net.add_host net "s" in
  let _ =
    Net.p2p net ~latency:0.005 ~loss:0.2 ~loss_seed:99
      ~prefix:(p "10.0.0.0/30")
      (c, "if0", a "10.0.0.1") (s, "if0", a "10.0.0.2")
  in
  let tc = Transport.Tcp.get c in
  let ts = Transport.Tcp.get s in
  let got = Buffer.create 256 in
  Transport.Tcp.listen ts ~port:80 (fun conn ->
      Transport.Tcp.on_receive conn (fun d -> Buffer.add_bytes got d));
  let conn = Transport.Tcp.connect tc ~dst:(a "10.0.0.2") ~dst_port:80 () in
  Transport.Tcp.send_data conn (Bytes.make 2000 'L');
  Net.run net;
  Alcotest.(check int) "all bytes despite loss" 2000 (Buffer.length got);
  Alcotest.(check bool) "retransmissions occurred" true
    (Transport.Tcp.retransmissions conn > 0)

let test_registration_survives_lossy_visited_net () =
  (* The registration protocol's own retry loop copes with a lossy access
     segment: a minimal world with the visited segment dropping 30% of
     frames. *)
  let net = Net.create () in
  let ha_node = Net.add_host net "ha" in
  let mh_node = Net.add_host net "mh" in
  let r = Net.add_router net "r" in
  let home_seg = Net.add_segment net ~name:"home" () in
  let visited_seg = Net.add_segment net ~name:"visited" ~loss:0.3 ~loss_seed:5 () in
  let ha_iface =
    Net.attach ha_node home_seg ~ifname:"eth0" ~addr:(a "36.1.0.2")
      ~prefix:(p "36.1.0.0/16")
  in
  ignore
    (Net.attach r home_seg ~ifname:"home" ~addr:(a "36.1.0.1")
       ~prefix:(p "36.1.0.0/16"));
  ignore
    (Net.attach r visited_seg ~ifname:"visited" ~addr:(a "131.7.0.1")
       ~prefix:(p "131.7.0.0/16"));
  let mh_iface =
    Net.attach mh_node home_seg ~ifname:"eth0" ~addr:(a "36.1.0.5")
      ~prefix:(p "36.1.0.0/16")
  in
  Routing.add_default (Net.routing ha_node) ~gateway:(a "36.1.0.1") ~iface:"eth0";
  Routing.add_default (Net.routing mh_node) ~gateway:(a "36.1.0.1") ~iface:"eth0";
  let _ha = Mobileip.Home_agent.create ha_node ~home_iface:ha_iface () in
  let mh =
    Mobileip.Mobile_host.create mh_node ~iface:mh_iface ~home:(a "36.1.0.5")
      ~home_prefix:(p "36.1.0.0/16") ~home_agent:(a "36.1.0.2") ()
  in
  let ok = ref None in
  Mobileip.Mobile_host.move_to_static mh visited_seg ~addr:(a "131.7.0.100")
    ~prefix:(p "131.7.0.0/16") ~gateway:(a "131.7.0.1")
    ~on_registered:(fun b -> ok := Some b)
    ();
  Net.run net;
  Alcotest.(check (option bool)) "registered despite 30% loss" (Some true) !ok;
  Alcotest.(check bool) "took more than one attempt" true
    (Mobileip.Mobile_host.registration_attempts mh >= 1)

let test_keepalive_outlives_lifetime () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  Mobileip.Mobile_host.enable_keepalive topo.Scenarios.Topo.mh ~margin:30.0
    ~max_renewals:3 ();
  (* The binding's lifetime is 300 s; idle events past 3 renewals mean the
     binding stays valid out to ~4 lifetimes. *)
  let eng = Net.engine topo.Scenarios.Topo.net in
  let alive_at = ref [] in
  List.iter
    (fun t ->
      Engine.after eng t (fun () ->
          alive_at :=
            (t,
              Mobileip.Home_agent.binding_for topo.Scenarios.Topo.ha
                topo.Scenarios.Topo.mh_home_addr
              <> None)
            :: !alive_at))
    [ 100.0; 400.0; 700.0; 1000.0 ];
  Scenarios.Topo.run topo;
  List.iter
    (fun (t, alive) ->
      Alcotest.(check bool)
        (Printf.sprintf "binding alive at t=%.0f" t)
        true alive)
    !alive_at

let test_no_keepalive_expires () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let eng = Net.engine topo.Scenarios.Topo.net in
  let alive = ref true in
  Engine.after eng 400.0 (fun () ->
      alive :=
        Mobileip.Home_agent.binding_for topo.Scenarios.Topo.ha
          topo.Scenarios.Topo.mh_home_addr
        <> None);
  Scenarios.Topo.run topo;
  Alcotest.(check bool) "binding gone after lifetime without keepalive" false
    !alive

let test_keepalive_cancelled_by_movement () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  Mobileip.Mobile_host.enable_keepalive topo.Scenarios.Topo.mh ~max_renewals:5 ();
  Scenarios.Topo.come_home topo;
  let before = Mobileip.Mobile_host.registration_attempts topo.Scenarios.Topo.mh in
  (* Idle long enough that stale renewal timers would have fired. *)
  Engine.after (Net.engine topo.Scenarios.Topo.net) 600.0 (fun () -> ());
  Scenarios.Topo.run topo;
  Alcotest.(check int) "no ghost renewals after coming home" before
    (Mobileip.Mobile_host.registration_attempts topo.Scenarios.Topo.mh)

(* A move whose whole registration window falls inside a partition uses up
   its transmissions and fails; with the keepalive on, the host retries on
   the renewal backoff and re-registers once the cut heals. *)
let test_failed_move_registration_retried () =
  let topo =
    Scenarios.Topo.build ~mh_retry_base:0.5 ~mh_retry_cap:2.0
      ~mh_retry_limit:3 ()
  in
  let mh = topo.Scenarios.Topo.mh in
  let net = topo.Scenarios.Topo.net in
  Scenarios.Topo.roam_static topo ();
  Mobileip.Mobile_host.enable_keepalive mh ~max_renewals:10 ();
  let t0 = Net.now net in
  let fault = Fault.attach net in
  Fault.partition fault ~from_:t0 ~until:(t0 +. 10.0) ~a:[ "hr" ] ~b:[ "b0" ];
  let first = ref None in
  Mobileip.Mobile_host.move_to_static mh topo.Scenarios.Topo.visited_segment
    ~addr:(a "131.7.0.201") ~prefix:topo.Scenarios.Topo.visited_prefix
    ~gateway:(a "131.7.0.1")
    ~on_registered:(fun ok -> first := Some ok)
    ();
  Net.run ~until:(t0 +. 9.0) net;
  Alcotest.(check (option bool)) "the move's registration failed" (Some false)
    !first;
  Net.run ~until:(t0 +. 30.0) net;
  Alcotest.(check bool) "registered after the cut heals" true
    (Mobileip.Mobile_host.registered mh);
  match
    Mobileip.Home_agent.binding_for topo.Scenarios.Topo.ha
      topo.Scenarios.Topo.mh_home_addr
  with
  | Some b ->
      Alcotest.(check string) "binding names the new care-of" "131.7.0.201"
        (Ipv4_addr.to_string b.Mobileip.Types.care_of)
  | None -> Alcotest.fail "no binding after the cut healed"

let test_cellular_attachment () =
  let topo = Scenarios.Topo.build ~with_cellular:true () in
  let ok = ref None in
  Scenarios.Topo.roam_cellular topo ~on_registered:(fun b -> ok := Some b) ();
  Alcotest.(check (option bool)) "registered over cellular" (Some true) !ok;
  (match Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh with
  | Some coa ->
      Alcotest.(check bool) "coa from the cellular pool" true
        (Ipv4_addr.Prefix.mem coa (Ipv4_addr.Prefix.of_string "166.4.0.0/16"))
  | None -> Alcotest.fail "no care-of");
  (* Reachable via tunnel, but slowly: the access link adds 300+ ms RTT. *)
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  let rtt = ref None in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt:r -> rtt := Some r);
  Scenarios.Topo.run topo;
  match !rtt with
  | Some r -> Alcotest.(check bool) "cellular-scale rtt" true (r > 0.3)
  | None ->
      (* The 2% loss can eat the single ping; the registration above
         already proves connectivity.  Retry once. *)
      Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
        (fun ~rtt:r -> rtt := Some r);
      Scenarios.Topo.run topo;
      Alcotest.(check bool) "cellular-scale rtt (retry)" true
        (match !rtt with Some r -> r > 0.3 | None -> false)

let test_away_to_away_movement () =
  (* Moving directly between two foreign networks (visited Ethernet ->
     cellular) must work: the DHCP broadcast on the new segment goes out
     plain even though the location state still describes the old one
     (regression: the route override used to tunnel the broadcast). *)
  let topo = Scenarios.Topo.build ~with_cellular:true () in
  Scenarios.Topo.roam topo ();
  Alcotest.(check (option string)) "on visited ethernet" (Some "131.7.0.100")
    (Option.map Ipv4_addr.to_string
       (Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh));
  let ok = ref None in
  Scenarios.Topo.roam_cellular topo ~on_registered:(fun b -> ok := Some b) ();
  Alcotest.(check (option bool)) "re-registered from cellular" (Some true) !ok;
  (match Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh with
  | Some coa ->
      Alcotest.(check bool) "care-of now cellular" true
        (Ipv4_addr.Prefix.mem coa (p "166.4.0.0/16"))
  | None -> Alcotest.fail "no care-of");
  match Mobileip.Home_agent.bindings topo.Scenarios.Topo.ha with
  | [ b ] ->
      Alcotest.(check bool) "binding follows the host" true
        (Ipv4_addr.Prefix.mem b.Mobileip.Types.care_of (p "166.4.0.0/16"))
  | _ -> Alcotest.fail "expected exactly one binding"

let test_ethernet_vs_cellular_session_quality () =
  (* The §1 motivation for switching attachments: the same telnet workload
     is an order of magnitude slower over the cellular link. *)
  let session roamer =
    let topo = Scenarios.Topo.build ~with_cellular:true () in
    roamer topo;
    Scenarios.Workload.tcp_echo_server topo.Scenarios.Topo.ch_node
      ~port:Transport.Well_known.telnet;
    let stats =
      Scenarios.Workload.tcp_echo_session ~net:topo.Scenarios.Topo.net
        ~client:topo.Scenarios.Topo.mh_node
        ~server_addr:topo.Scenarios.Topo.ch_addr
        ~port:Transport.Well_known.telnet
        ~src:topo.Scenarios.Topo.mh_home_addr ~messages:5 ~spacing:0.1 ()
    in
    stats
  in
  let eth = session (fun topo -> Scenarios.Topo.roam topo ()) in
  let cell = session (fun topo -> Scenarios.Topo.roam_cellular topo ()) in
  Alcotest.(check int) "ethernet session completes" 5
    eth.Scenarios.Workload.messages_echoed;
  Alcotest.(check int) "cellular session completes" 5
    cell.Scenarios.Workload.messages_echoed;
  Alcotest.(check bool)
    (Printf.sprintf "cellular much slower (%.2fs vs %.2fs)"
       cell.Scenarios.Workload.elapsed eth.Scenarios.Workload.elapsed)
    true
    (cell.Scenarios.Workload.elapsed > 2.0 *. eth.Scenarios.Workload.elapsed)

let test_metrics_helpers () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  Trace.clear (Net.trace topo.Scenarios.Topo.net);
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt:_ -> ());
  Scenarios.Topo.run topo;
  let trace = Net.trace topo.Scenarios.Topo.net in
  Alcotest.(check bool) "total >= backbone" true
    (Netobs.Trace_stats.total_bytes trace
    >= Netobs.Trace_stats.backbone_bytes trace);
  Alcotest.(check bool) "backbone carried the ping" true
    (Netobs.Trace_stats.backbone_bytes trace > 0);
  Alcotest.(check bool) "home access link used" true
    (Netobs.Trace_stats.bytes_on trace ~link:"hr<->b0" > 0);
  Alcotest.(check bool) "mh delivered something" true
    (Netobs.Trace_stats.delivered_count trace ~node:"mh" > 0);
  Alcotest.(check int) "unknown link is zero" 0
    (Netobs.Trace_stats.bytes_on trace ~link:"no-such-link")

let suites =
  [
    ( "resilience",
      [
        Alcotest.test_case "loss is deterministic" `Quick
          test_loss_is_deterministic;
        Alcotest.test_case "loss drops traced" `Quick test_loss_drops_traced;
        Alcotest.test_case "loss rate validated" `Quick test_loss_rate_validated;
        Alcotest.test_case "tcp survives lossy path" `Quick
          test_tcp_survives_lossy_path;
        Alcotest.test_case "registration over lossy access" `Quick
          test_registration_survives_lossy_visited_net;
        Alcotest.test_case "keepalive outlives lifetime" `Quick
          test_keepalive_outlives_lifetime;
        Alcotest.test_case "no keepalive: binding expires" `Quick
          test_no_keepalive_expires;
        Alcotest.test_case "keepalive cancelled by movement" `Quick
          test_keepalive_cancelled_by_movement;
        Alcotest.test_case "cellular attachment" `Quick test_cellular_attachment;
        Alcotest.test_case "away-to-away movement" `Quick
          test_away_to_away_movement;
        Alcotest.test_case "ethernet vs cellular session" `Quick
          test_ethernet_vs_cellular_session_quality;
        Alcotest.test_case "metrics helpers" `Quick test_metrics_helpers;
        Alcotest.test_case "failed move registration retried after a cut"
          `Quick test_failed_move_registration_retried;
      ] );
  ]
