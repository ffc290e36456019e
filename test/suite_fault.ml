(* The fault-injection subsystem: scripted flaps, partitions, latency
   spikes, duplication and reordering windows, agent crash/restart, the
   home agent's eager purge, and the registration backoff machinery. *)

open Netsim

let a = Ipv4_addr.of_string
let p = Ipv4_addr.Prefix.of_string

(* A two-host world over one p2p link, with a sender helper. *)
let tiny_world () =
  let net = Net.create () in
  let s = Net.add_host net "s" in
  let d = Net.add_host net "d" in
  let _ =
    Net.p2p net ~latency:0.01 ~prefix:(p "10.0.0.0/30") (s, "if0", a "10.0.0.1")
      (d, "if0", a "10.0.0.2")
  in
  let udp_d = Transport.Udp_service.get d in
  let got = ref [] in
  Transport.Udp_service.listen udp_d ~port:7 (fun _ d ->
      got :=
        (Engine.now (Net.engine net), d.Transport.Udp_service.src_port - 47000)
        :: !got);
  let udp_s = Transport.Udp_service.get s in
  let eng = Net.engine net in
  let send_at time k =
    Engine.schedule eng ~at:time (fun () ->
        ignore
          (Transport.Udp_service.send udp_s ~dst:(a "10.0.0.2")
             ~src_port:(47000 + k) ~dst_port:7 (Bytes.make 16 'z')))
  in
  (net, send_at, got)

(* The p2p link's name follows the s<->d convention. *)
let link = "s<->d"

let test_flap_drops_and_recovers () =
  let net, send_at, got = tiny_world () in
  let fault = Fault.attach net in
  Fault.flap fault ~link ~down:1.0 ~up:2.0;
  List.iteri (fun k t -> send_at t k) [ 0.5; 1.2; 1.8; 2.5 ];
  Net.run net;
  Alcotest.(check int) "two delivered" 2 (List.length !got);
  let stats = Fault.stats fault in
  Alcotest.(check int) "two flap drops" 2 stats.Fault.flap_drops;
  let traced =
    List.assoc_opt Trace.Link_flap
      (Netobs.Trace_stats.drops_by_reason (Net.trace net))
  in
  Alcotest.(check (option int)) "drops traced as link-flap" (Some 2) traced

let test_partition_blocks_both_directions () =
  let net, send_at, got = tiny_world () in
  let fault = Fault.attach net in
  Fault.partition fault ~from_:1.0 ~until:2.0 ~a:[ "s" ] ~b:[ "d" ];
  List.iteri (fun k t -> send_at t k) [ 0.5; 1.5; 2.5 ];
  Net.run net;
  Alcotest.(check int) "one dropped" 2 (List.length !got);
  let stats = Fault.stats fault in
  Alcotest.(check int) "partition drop counted" 1 stats.Fault.partition_drops;
  Alcotest.(check (option int)) "traced as partitioned" (Some 1)
    (List.assoc_opt Trace.Partitioned
       (Netobs.Trace_stats.drops_by_reason (Net.trace net)))

let test_latency_spike_delays () =
  let net, send_at, got = tiny_world () in
  let fault = Fault.attach net in
  Fault.latency_spike fault ~link ~from_:1.0 ~until:2.0 ~extra:0.5;
  send_at 0.5 0;
  send_at 1.5 1;
  Net.run net;
  match List.rev !got with
  | [ (t1, _); (t2, _) ] ->
      Alcotest.(check bool) "baseline fast" true (t1 -. 0.5 < 0.1);
      Alcotest.(check bool)
        (Printf.sprintf "spiked delivery slow (%.3fs)" (t2 -. 1.5))
        true
        (t2 -. 1.5 > 0.5)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_duplication_window () =
  let run () =
    let net, send_at, got = tiny_world () in
    let fault = Fault.attach ~seed:99 net in
    Fault.duplicate_window fault ~from_:0.0 ~until:10.0 ~rate:0.5;
    for k = 0 to 19 do
      send_at (0.1 +. (0.2 *. float_of_int k)) k
    done;
    Net.run net;
    (List.length !got, (Fault.stats fault).Fault.duplicated)
  in
  let delivered, duplicated = run () in
  Alcotest.(check bool) "extra copies arrived" true (delivered > 20);
  Alcotest.(check int) "every duplicate delivered" (20 + duplicated) delivered;
  let delivered', duplicated' = run () in
  Alcotest.(check (pair int int)) "same seed, same outcome"
    (delivered, duplicated) (delivered', duplicated')

let test_reorder_window () =
  let net, send_at, got = tiny_world () in
  let fault = Fault.attach ~seed:4 net in
  Fault.reorder_window fault ~from_:0.0 ~until:10.0 ~rate:0.7 ~max_extra:0.3;
  for k = 0 to 19 do
    send_at (0.1 +. (0.05 *. float_of_int k)) k
  done;
  Net.run net;
  Alcotest.(check int) "all delivered" 20 (List.length !got);
  let stats = Fault.stats fault in
  Alcotest.(check bool) "some copies jittered" true (stats.Fault.delayed > 0);
  (* Arrival order no longer matches send order: some later probe
     overtook a jittered earlier one. *)
  let arrival_order = List.rev_map snd !got |> List.rev in
  let send_order = List.sort compare arrival_order in
  Alcotest.(check bool) "stream reordered" true (arrival_order <> send_order)

let test_window_validation () =
  let net, _, _ = tiny_world () in
  let fault = Fault.attach net in
  Alcotest.check_raises "empty flap"
    (Invalid_argument "Fault.flap: up must be after down") (fun () ->
      Fault.flap fault ~link ~down:2.0 ~up:2.0);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Fault.duplicate_window: rate must be in [0,1)")
    (fun () -> Fault.duplicate_window fault ~from_:0.0 ~until:1.0 ~rate:1.0)

let test_detach_restores_delivery () =
  let net, send_at, got = tiny_world () in
  let fault = Fault.attach net in
  Fault.link_down fault ~at:0.0 ~link;
  Fault.at fault ~time:1.0 (fun () -> Fault.detach fault);
  send_at 0.5 0;
  send_at 1.5 1;
  Net.run net;
  Alcotest.(check int) "only the post-detach probe arrives" 1
    (List.length !got)

(* ---- control-plane hardening ---- *)

let test_ha_purge_shrinks_table () =
  let topo = Scenarios.Topo.build ~mh_lifetime:20 () in
  Scenarios.Topo.roam topo ();
  let ha = topo.Scenarios.Topo.ha in
  Alcotest.(check int) "binding installed" 1
    (List.length (Mobileip.Home_agent.bindings ha));
  (* Idle past expiry without touching the binding, then purge. *)
  Engine.after (Net.engine topo.Scenarios.Topo.net) 60.0 (fun () -> ());
  Scenarios.Topo.run topo;
  Alcotest.(check int) "stale entry still parked" 1
    (List.length (Mobileip.Home_agent.bindings ha));
  Alcotest.(check int) "purge removes it" 1
    (Mobileip.Home_agent.purge_expired ha);
  Alcotest.(check int) "table empty" 0
    (List.length (Mobileip.Home_agent.bindings ha));
  Alcotest.(check int) "purge counter" 1
    (Mobileip.Home_agent.bindings_purged ha);
  Alcotest.(check int) "second purge is a no-op" 0
    (Mobileip.Home_agent.purge_expired ha)

let test_ha_periodic_purge () =
  let topo = Scenarios.Topo.build ~mh_lifetime:20 () in
  Scenarios.Topo.roam topo ();
  Mobileip.Home_agent.enable_purge topo.Scenarios.Topo.ha ~interval:10.0 ();
  (* The purge is a background ticker: it holds no run open, so run the
     world through a window that outlasts the binding. *)
  let net = topo.Scenarios.Topo.net in
  Net.run ~until:(Net.now net +. 50.0) net;
  (* The binding expired at ~20 s; a purge tick (30, 40...) swept it
     without anyone consulting the table. *)
  Alcotest.(check int) "swept by the timer" 1
    (Mobileip.Home_agent.bindings_purged topo.Scenarios.Topo.ha);
  Alcotest.(check int) "table empty" 0
    (List.length (Mobileip.Home_agent.bindings topo.Scenarios.Topo.ha))

let test_ha_crash_and_recovery () =
  let topo = Scenarios.Topo.build ~mh_lifetime:10 () in
  let ha = topo.Scenarios.Topo.ha in
  let mh = topo.Scenarios.Topo.mh in
  Scenarios.Topo.roam_static topo ();
  Mobileip.Mobile_host.enable_keepalive mh ~margin:5.0 ~max_renewals:10 ();
  let eng = Net.engine topo.Scenarios.Topo.net in
  let t0 = Engine.now eng in
  Engine.schedule eng ~at:(t0 +. 1.0) (fun () -> Mobileip.Home_agent.crash ha);
  let down_bindings = ref (-1) in
  Engine.schedule eng ~at:(t0 +. 2.0) (fun () ->
      down_bindings := List.length (Mobileip.Home_agent.bindings ha));
  Engine.schedule eng ~at:(t0 +. 4.0) (fun () ->
      Mobileip.Home_agent.restart ha);
  Scenarios.Topo.run topo;
  Alcotest.(check int) "crash wiped the table" 0 !down_bindings;
  Alcotest.(check bool) "agent back up" true (Mobileip.Home_agent.is_up ha);
  (* The keepalive retry loop re-registered once the agent came back. *)
  Alcotest.(check bool) "binding re-established" true
    (Mobileip.Home_agent.binding_for ha topo.Scenarios.Topo.mh_home_addr
    <> None);
  Alcotest.(check bool) "mh registered again" true
    (Mobileip.Mobile_host.registered mh)

let test_fa_crash_clears_visitors () =
  let net = Net.create () in
  let fa_node = Net.add_router net "fa" in
  let seg = Net.add_segment net ~name:"lan" () in
  let iface =
    Net.attach fa_node seg ~ifname:"eth0" ~addr:(a "131.7.0.1")
      ~prefix:(p "131.7.0.0/16")
  in
  let fa = Mobileip.Foreign_agent.create fa_node ~iface ~advertise:false () in
  Alcotest.(check bool) "up" true (Mobileip.Foreign_agent.is_up fa);
  Mobileip.Foreign_agent.crash fa;
  Alcotest.(check bool) "down" false (Mobileip.Foreign_agent.is_up fa);
  Alcotest.(check int) "visitor list wiped" 0
    (List.length (Mobileip.Foreign_agent.visitors fa));
  Mobileip.Foreign_agent.restart fa;
  Alcotest.(check bool) "up again" true (Mobileip.Foreign_agent.is_up fa)

(* ---- registration backoff ---- *)

let backoff_world () =
  (* MH and HA on one segment; no loss — failures come from crashing the
     agent. *)
  let net = Net.create () in
  let ha_node = Net.add_host net "ha" in
  let mh_node = Net.add_host net "mh" in
  let seg = Net.add_segment net ~name:"home" () in
  let ha_iface =
    Net.attach ha_node seg ~ifname:"eth0" ~addr:(a "36.1.0.2")
      ~prefix:(p "36.1.0.0/16")
  in
  let mh_iface =
    Net.attach mh_node seg ~ifname:"eth0" ~addr:(a "36.1.0.5")
      ~prefix:(p "36.1.0.0/16")
  in
  let visited = Net.add_segment net ~name:"visited" () in
  let r = Net.add_router net "r" in
  ignore
    (Net.attach r seg ~ifname:"home" ~addr:(a "36.1.0.1")
       ~prefix:(p "36.1.0.0/16"));
  ignore
    (Net.attach r visited ~ifname:"visited" ~addr:(a "131.7.0.1")
       ~prefix:(p "131.7.0.0/16"));
  Routing.add_default (Net.routing ha_node) ~gateway:(a "36.1.0.1")
    ~iface:"eth0";
  Routing.add_default (Net.routing mh_node) ~gateway:(a "36.1.0.1")
    ~iface:"eth0";
  let ha = Mobileip.Home_agent.create ha_node ~home_iface:ha_iface () in
  let mh =
    Mobileip.Mobile_host.create mh_node ~iface:mh_iface ~home:(a "36.1.0.5")
      ~home_prefix:(p "36.1.0.0/16") ~home_agent:(a "36.1.0.2")
      ~retry_base:0.5 ~retry_cap:2.0 ~retry_limit:4 ()
  in
  (net, ha, mh, visited)

let test_backoff_schedule () =
  let _, _, mh, _ = backoff_world () in
  (* Delays grow exponentially to the cap; jitter stays within +25%. *)
  let d0 = Mobileip.Mobile_host.retry_delay mh 0 in
  let d1 = Mobileip.Mobile_host.retry_delay mh 1 in
  let d2 = Mobileip.Mobile_host.retry_delay mh 2 in
  let d5 = Mobileip.Mobile_host.retry_delay mh 5 in
  Alcotest.(check bool) "d0 in [base, 1.25*base)" true
    (d0 >= 0.5 && d0 < 0.625);
  Alcotest.(check bool) "d1 in [1, 1.25)" true (d1 >= 1.0 && d1 < 1.25);
  Alcotest.(check bool) "d2 capped at 2s (+jitter)" true
    (d2 >= 2.0 && d2 < 2.5);
  Alcotest.(check bool) "cap holds for large n" true (d5 >= 2.0 && d5 < 2.5);
  (* Same seed, same jitter stream. *)
  let _, _, mh2, _ = backoff_world () in
  Alcotest.(check (float 1e-9)) "deterministic jitter" d0
    (Mobileip.Mobile_host.retry_delay mh2 0)

let test_registration_gives_up_after_limit () =
  let net, ha, mh, visited = backoff_world () in
  Mobileip.Home_agent.crash ha;
  let result = ref None in
  Mobileip.Mobile_host.move_to_static mh visited ~addr:(a "131.7.0.50")
    ~prefix:(p "131.7.0.0/16") ~gateway:(a "131.7.0.1")
    ~on_registered:(fun ok -> result := Some ok)
    ();
  Net.run net;
  Alcotest.(check (option bool)) "registration failed" (Some false) !result;
  Alcotest.(check bool) "not registered" false
    (Mobileip.Mobile_host.registered mh);
  (* 4 transmissions at 0.5/1/2 (capped) spacing: all before ~5 s. *)
  Alcotest.(check int) "retry_limit transmissions" 4
    (Mobileip.Mobile_host.registration_attempts mh)

let test_failed_registration_invalidates_correspondent () =
  let net, ha, mh, visited = backoff_world () in
  (* A mobile-aware CH on the home segment that learned our binding. *)
  let ch_node = Net.add_host net "ch" in
  ignore
    (Net.attach ch_node visited ~ifname:"eth0" ~addr:(a "131.7.0.9")
       ~prefix:(p "131.7.0.0/16"));
  Routing.add_default (Net.routing ch_node) ~gateway:(a "131.7.0.1")
    ~iface:"eth0";
  let ch =
    Mobileip.Correspondent.create ch_node
      ~capability:Mobileip.Correspondent.Mobile_aware ()
  in
  let registered = ref None in
  Mobileip.Mobile_host.move_to_static mh visited ~addr:(a "131.7.0.50")
    ~prefix:(p "131.7.0.0/16") ~gateway:(a "131.7.0.1")
    ~on_registered:(fun ok -> registered := Some ok)
    ();
  Net.run net;
  Alcotest.(check (option bool)) "first registration ok" (Some true)
    !registered;
  ignore
    (Mobileip.Mobile_host.send_binding_update mh
       ~correspondent:(a "131.7.0.9") ());
  Net.run net;
  Alcotest.(check (option string)) "ch cached the care-of"
    (Some "131.7.0.50")
    (Option.map Ipv4_addr.to_string
       (Mobileip.Correspondent.cached_care_of ch ~home:(a "36.1.0.5")));
  (* Now the home agent dies and the re-registration runs out of
     retries: the MH must withdraw the binding it advertised. *)
  Mobileip.Home_agent.crash ha;
  Mobileip.Mobile_host.reregister mh ();
  Net.run net;
  Alcotest.(check (option string)) "cache invalidated" None
    (Option.map Ipv4_addr.to_string
       (Mobileip.Correspondent.cached_care_of ch ~home:(a "36.1.0.5")))

(* ---- end-to-end determinism of a full scripted scenario ---- *)

let test_scripted_scenario_deterministic () =
  let run () =
    let net, send_at, got = tiny_world () in
    let fault = Fault.attach ~seed:0xbeef net in
    Fault.flap fault ~link ~down:1.0 ~up:1.5;
    Fault.duplicate_window fault ~from_:2.0 ~until:3.0 ~rate:0.4;
    Fault.reorder_window fault ~from_:3.0 ~until:4.0 ~rate:0.6
      ~max_extra:0.2;
    Fault.partition fault ~from_:4.0 ~until:4.5 ~a:[ "s" ] ~b:[ "d" ];
    for k = 0 to 49 do
      send_at (0.05 +. (0.1 *. float_of_int k)) k
    done;
    Net.run net;
    let s = Fault.stats fault in
    ( List.length !got,
      s.Fault.flap_drops,
      s.Fault.partition_drops,
      s.Fault.duplicated,
      s.Fault.delayed )
  in
  let r1 = run () in
  let r2 = run () in
  let pp (d, f, p, du, de) = Printf.sprintf "%d/%d/%d/%d/%d" d f p du de in
  Alcotest.(check string) "identical replay" (pp r1) (pp r2);
  let d, f, pa, du, de = r1 in
  Alcotest.(check bool) "every fault kind fired" true
    (f > 0 && pa > 0 && du > 0 && de > 0 && d > 0)

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "flap drops and recovers" `Quick
          test_flap_drops_and_recovers;
        Alcotest.test_case "partition blocks delivery" `Quick
          test_partition_blocks_both_directions;
        Alcotest.test_case "latency spike" `Quick test_latency_spike_delays;
        Alcotest.test_case "duplication window" `Quick test_duplication_window;
        Alcotest.test_case "reorder window" `Quick test_reorder_window;
        Alcotest.test_case "window validation" `Quick test_window_validation;
        Alcotest.test_case "detach restores delivery" `Quick
          test_detach_restores_delivery;
        Alcotest.test_case "ha purge shrinks table" `Quick
          test_ha_purge_shrinks_table;
        Alcotest.test_case "ha periodic purge" `Quick test_ha_periodic_purge;
        Alcotest.test_case "ha crash and recovery" `Quick
          test_ha_crash_and_recovery;
        Alcotest.test_case "fa crash clears visitors" `Quick
          test_fa_crash_clears_visitors;
        Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
        Alcotest.test_case "registration gives up after limit" `Quick
          test_registration_gives_up_after_limit;
        Alcotest.test_case "failed registration invalidates correspondent"
          `Quick test_failed_registration_invalidates_correspondent;
        Alcotest.test_case "scripted scenario deterministic" `Quick
          test_scripted_scenario_deterministic;
      ] );
  ]
