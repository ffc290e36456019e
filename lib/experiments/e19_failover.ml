(* E19 — failure signaling and failover.

   Part A: a mobile host behind ingress source-address filtering probes
   aggressively (Out-DH first).  When boundary routers drop its packets
   silently, the selector needs [fallback_after] TCP-retransmission hints
   — each paid for at the full retransmission timeout — before it
   abandons the method.  With ICMP error signaling enabled, the very
   first filtered packet comes back as an administratively-prohibited
   error (tunneled to the mobile host by its home agent), and the
   selector abandons the method immediately.

   Part B: the home agent crashes mid-stream.  Without redundancy the
   correspondent's In-IE traffic black-holes until the agent restarts
   and the mobile host's keepalive re-registers.  With a paired standby
   (soft-state binding replication, liveness detection, address
   takeover) the outage is bounded by the detection timeout.  The
   invariant oracle's ha-failover-recovery check runs throughout.

   Everything is seeded and deterministic. *)

open Mobileip

(* {1 Part A: silent drops vs ICMP-signaled drops} *)

type filtering_result = {
  signaled : bool;
  messages_echoed : int;
  retransmissions : int;
  switches : int;
  settled : Grid.out_method;
  first_byte : float option;  (* s from connect to the first echoed byte *)
  icmp_sent : int;  (* errors emitted by routers *)
  icmp_consumed : int;  (* errors the MH fed to its selector *)
}

let filtering_messages = 10

let run_filtering ~signaled () =
  let open Scenarios in
  let topo =
    Topo.build ~ch_position:Topo.Inside_home ~filtering:Topo.ingress_only
      ~ch_capability:Correspondent.Decap_capable ()
  in
  if signaled then Netsim.Net.enable_error_signaling topo.Topo.net;
  Topo.roam_static topo ();
  let selector = Selector.create Selector.Aggressive_first in
  Mobile_host.set_selector topo.Topo.mh (Some selector);
  Workload.tcp_echo_server topo.Topo.ch_node ~port:Transport.Well_known.telnet;
  let net = topo.Topo.net in
  let eng = Netsim.Net.engine net in
  let mh_tcp = Transport.Tcp.get topo.Topo.mh_node in
  let t0 = Netsim.Engine.now eng in
  let conn =
    Transport.Tcp.connect mh_tcp ~src:topo.Topo.mh_home_addr
      ~dst:topo.Topo.ch_addr ~dst_port:Transport.Well_known.telnet ()
  in
  (* Time to first byte is the recovery metric: how long the aggressive
     probe (Out-DH, filtered at the home boundary) stalls the session
     before the selector falls back to a method that works. *)
  let first_byte = ref None in
  let echoed = ref 0 in
  Transport.Tcp.on_receive conn (fun data ->
      if !first_byte = None && Bytes.length data > 0 then
        first_byte := Some (Netsim.Engine.now eng -. t0);
      echoed := !echoed + Bytes.length data);
  let message = Bytes.of_string "probe\n" in
  for k = 0 to filtering_messages - 1 do
    Netsim.Engine.schedule eng
      ~at:(t0 +. (0.5 *. float_of_int k))
      (fun () -> Transport.Tcp.send_data conn message)
  done;
  Netsim.Net.run net;
  let dst = topo.Topo.ch_addr in
  {
    signaled;
    messages_echoed = !echoed / Bytes.length message;
    retransmissions = Transport.Tcp.retransmissions conn;
    switches = Selector.switches selector ~dst;
    settled = Selector.method_for selector dst;
    first_byte = !first_byte;
    icmp_sent = Netsim.Net.icmp_errors_sent topo.Topo.net;
    icmp_consumed = Mobile_host.icmp_errors_consumed topo.Topo.mh;
  }

(* {1 Part B: home-agent crash, with and without a standby} *)

type failover_result = {
  standby : bool;
  probes_sent : int;
  probes_delivered : int;
  lost : int;
  recovery : float option;  (* s from the crash to the next delivery *)
  failover : float option;  (* standby detection latency, if it fired *)
  takeovers : int;
  oracle_violations : int;
}

let probe_interval = 0.25
let probe_count = 120 (* 30 s of probes *)
let probe_port = 40019
let crash_at = 5.0
let restart_at = 20.0

let run_failover ~standby () =
  let open Scenarios in
  let topo =
    Topo.build ~mh_lifetime:10 ~with_standby_ha:standby
      ~standby_detect_interval:0.5 ~standby_detect_timeout:1.0 ()
  in
  let net = topo.Topo.net in
  let eng = Netsim.Net.engine net in
  Topo.roam_static topo ();
  Mobile_host.enable_keepalive topo.Topo.mh ~margin:5.0 ~max_renewals:12 ();
  let oracle = Oracle.create topo in
  Oracle.install_standard oracle;
  Oracle.start oracle ~interval:0.5 ~ticks:80;
  let t0 = Netsim.Engine.now eng in
  Netsim.Engine.schedule eng ~at:(t0 +. crash_at) (fun () ->
      Home_agent.crash topo.Topo.ha);
  Netsim.Engine.schedule eng ~at:(t0 +. restart_at) (fun () ->
      Home_agent.restart topo.Topo.ha);
  (* CH -> MH-home probe stream: each probe carries its sequence number;
     the receiver deduplicates. *)
  let mh_udp = Transport.Udp_service.get topo.Topo.mh_node in
  let ch_udp = Transport.Udp_service.get topo.Topo.ch_node in
  let seen = Hashtbl.create 128 in
  let delivery_times = ref [] in
  Transport.Udp_service.listen mh_udp ~port:probe_port (fun _ dgram ->
      let k = Bytes.get_uint16_be dgram.Transport.Udp_service.payload 0 in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        delivery_times := Netsim.Engine.now eng :: !delivery_times
      end);
  for k = 0 to probe_count - 1 do
    Netsim.Engine.schedule eng
      ~at:(t0 +. (probe_interval *. float_of_int k))
      (fun () ->
        let payload = Bytes.make 32 'f' in
        Bytes.set_uint16_be payload 0 k;
        ignore
          (Transport.Udp_service.send ch_udp ~dst:topo.Topo.mh_home_addr
             ~src_port:(42000 + k) ~dst_port:probe_port payload))
  done;
  Netsim.Net.run net;
  Oracle.finish oracle;
  let times = List.sort compare (List.rev !delivery_times) in
  let abs_crash = t0 +. crash_at in
  let recovery =
    List.find_map
      (fun d -> if d >= abs_crash then Some (d -. abs_crash) else None)
      times
  in
  let failover, takeovers =
    match topo.Topo.ha_standby with
    | None -> (None, 0)
    | Some s -> (Home_agent.last_failover s, Home_agent.takeovers s)
  in
  let delivered = Hashtbl.length seen in
  {
    standby;
    probes_sent = probe_count;
    probes_delivered = delivered;
    lost = probe_count - delivered;
    recovery;
    failover;
    takeovers;
    oracle_violations = List.length (Oracle.violations oracle);
  }

let opt_ms = function
  | Some x -> Printf.sprintf "%.0fms" (x *. 1000.0)
  | None -> "-"

let run () =
  let fa = run_filtering ~signaled:false () in
  let fb = run_filtering ~signaled:true () in
  let filtering_row (r : filtering_result) =
    [
      (if r.signaled then "A: filtered, ICMP signaled"
       else "A: filtered, silent drops");
      Printf.sprintf "%d/%d" r.messages_echoed filtering_messages;
      string_of_int r.retransmissions;
      string_of_int r.switches;
      Grid.out_to_string r.settled;
      opt_ms r.first_byte;
      Printf.sprintf "%d/%d" r.icmp_sent r.icmp_consumed;
      "-";
    ]
  in
  let ga = run_failover ~standby:false () in
  let gb = run_failover ~standby:true () in
  let failover_row (r : failover_result) =
    [
      (if r.standby then "B: HA crash, hot standby"
       else "B: HA crash, no standby");
      Printf.sprintf "%d/%d del" r.probes_delivered r.probes_sent;
      string_of_int r.lost;
      Printf.sprintf "%d takeover" r.takeovers;
      "-";
      opt_ms r.recovery;
      string_of_int r.oracle_violations;
      opt_ms r.failover;
    ]
  in
  {
    Table.id = "E19";
    title = "Failure signaling and home-agent failover";
    paper_claim =
      "delivery methods fail in the field (filters, dead agents); fast \
       explicit failure feedback and agent redundancy bound how long a \
       mobile host stays unreachable";
    columns =
      [
        "scenario";
        "delivered";
        "retx/lost";
        "switches/takeovers";
        "settled";
        "first-byte/recovery";
        "icmp s/c | viol";
        "failover";
      ];
    rows = [ filtering_row fa; filtering_row fb; failover_row ga; failover_row gb ];
    notes =
      [
        "part A: MH away under home ingress filtering, aggressive-first \
         selector, 10-message telnet session; silent drops cost \
         fallback_after retransmission timeouts per abandoned method, an \
         ICMP admin-prohibited error abandons it on first contact; \
         first-byte is connect -> first echoed byte";
        Printf.sprintf
          "part B: CH->MH probes every %.0f ms for %.0f s; HA crashes at \
           t+%.0fs, restarts at t+%.0fs; standby detection 0.5s interval / \
           1s timeout; recovery is crash -> next probe delivered at the MH"
          (probe_interval *. 1000.0)
          (probe_interval *. float_of_int probe_count)
          crash_at restart_at;
        "the invariant oracle (binding-lifetime, withdrawal, proxy-arp, \
         selector-discipline, ha-failover-recovery) runs through part B; \
         viol must be 0";
      ];
  }
