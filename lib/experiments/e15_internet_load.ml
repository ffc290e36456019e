(* E15 — §3.2: "As well as increasing the round-trip delay observed by the
   communicating parties, this also affects other users by increasing the
   overall load on the shared resources of the Internet."

   The same request/response workload (20 exchanges, 256-byte requests,
   512-byte replies) between a mobile host and a nearby correspondent,
   under three delivery regimes; we account every byte on every link. *)

open Netsim

let exchanges = 20
let req_size = 256
let rep_size = 512

let run_workload topo =
  let net = topo.Scenarios.Topo.net in
  Common.fresh_trace net;
  let mh_udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
  let ch_udp = Transport.Udp_service.get topo.Scenarios.Topo.ch_node in
  let replies = ref 0 in
  Transport.Udp_service.listen ch_udp ~port:9 (fun svc dgram ->
      ignore
        (Transport.Udp_service.send svc ~src:dgram.Transport.Udp_service.dst
           ~dst:dgram.Transport.Udp_service.src ~src_port:9
           ~dst_port:dgram.Transport.Udp_service.src_port
           (Bytes.make rep_size 'r')));
  let mh_port = 47000 in
  Transport.Udp_service.listen mh_udp ~port:mh_port (fun _ _ -> incr replies);
  let eng = Net.engine net in
  for i = 0 to exchanges - 1 do
    Engine.after eng (float_of_int i *. 0.3) (fun () ->
        ignore
          (Transport.Udp_service.send mh_udp
             ~src:topo.Scenarios.Topo.mh_home_addr
             ~dst:topo.Scenarios.Topo.ch_addr ~src_port:mh_port ~dst_port:9
             (Bytes.make req_size 'q')))
  done;
  Net.run net;
  let trace = Net.trace net in
  ( !replies,
    Netobs.Trace_stats.backbone_bytes trace,
    Netobs.Trace_stats.total_bytes trace,
    Netobs.Trace_stats.bytes_on trace ~link:"hr<->b0" )

let run () =
  (* Regime 1: conventional CH, conservative MH (everything via HA both
     ways). *)
  let naive =
    let topo =
      Scenarios.Topo.build ~backbone_hops:8
        ~ch_position:Scenarios.Topo.Near_visited ()
    in
    Scenarios.Topo.roam topo ();
    Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
      Mobileip.Grid.Out_IE;
    run_workload topo
  in
  (* Regime 2: conventional CH but direct replies (In-IE/Out-DH). *)
  let half =
    let topo =
      Scenarios.Topo.build ~backbone_hops:8
        ~ch_position:Scenarios.Topo.Near_visited ()
    in
    Scenarios.Topo.roam topo ();
    Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
      Mobileip.Grid.Out_DH;
    run_workload topo
  in
  (* Regime 3: mobile-aware CH with ICMP discovery (In-DE/Out-DH). *)
  let optimized =
    let topo =
      Scenarios.Topo.build ~backbone_hops:8
        ~ch_position:Scenarios.Topo.Near_visited
        ~ch_capability:Mobileip.Correspondent.Mobile_aware
        ~notify_correspondents:true ()
    in
    Scenarios.Topo.roam topo ();
    Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
      Mobileip.Grid.Out_DH;
    run_workload topo
  in
  let row name (replies, backbone, total, home_link) =
    [
      name;
      Printf.sprintf "%d/%d" replies exchanges;
      string_of_int backbone;
      string_of_int total;
      string_of_int home_link;
    ]
  in
  {
    Table.id = "E15";
    title =
      Printf.sprintf
        "Section 3.2 - load on shared Internet resources (%d exchanges, CH \
         near MH, home 8 hops away)"
        exchanges;
    paper_claim =
      "indirect delivery does not just add delay; it increases the overall \
       load on the shared resources of the Internet";
    columns =
      [
        "delivery regime";
        "replies";
        "p2p/backbone bytes";
        "all-link bytes";
        "home access link";
      ];
    rows =
      [
        row "In-IE/Out-IE (all via HA)" naive;
        row "In-IE/Out-DH (replies via HA)" half;
        row "In-DE/Out-DH (optimized)" optimized;
      ];
    notes =
      [
        "the home access link (hr<->b0) carries the entire workload twice \
         under full tunneling, once when only the CH is naive, and almost \
         nothing once route optimization kicks in";
      ];
  }
