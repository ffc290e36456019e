(* Micro timings of single layer functions, on the workload's own world,
   packet sizes and tables: the per-call costs the layer budget multiplies
   by per-op call counts.  Each figure is the median of several rounds,
   each round a tight loop timed as a whole. *)

open Netsim

let rounds = 9

let ns_per_call ~iters f =
  let per_round =
    Array.init rounds (fun _ ->
        let t0 = Clock.now_ns () in
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done;
        float_of_int (Clock.now_ns () - t0) /. float_of_int iters)
  in
  Stat.median per_round

let addr = Ipv4_addr.of_string

let udp_packet size =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(addr "36.1.0.10")
    ~dst:(addr "44.2.0.10")
    (Ipv4_packet.Udp (Udp_wire.make ~src_port:47000 ~dst_port:9 (Bytes.make size 'x')))

type t = {
  routing_lookup_ns : float;
  encap_wrap_ns : float;
  encap_unwrap_ns : float;
  fragment_split_ns : float;
  ipv4_encode_ns : float;
  ipv4_decode_ns : float;
  checksum_header_ns : float;
  registration_roundtrip_ns : float;
  engine_dispatch_ns : float;
  topo_build_ms : float;
  topo_roam_ms : float;
  topo_come_home_ms : float;
}

(* [build] makes the workload's world; [payloads] are its UDP payload
   sizes, one entry per packet of a typical mix. *)
let run ~build ~payloads =
  let topo : Scenarios.Topo.t = build () in
  Scenarios.Topo.roam topo ();
  let net = topo.Scenarios.Topo.net in
  (* Every node's table against every address the workload sends to. *)
  let dsts =
    [
      topo.Scenarios.Topo.ch_addr;
      topo.Scenarios.Topo.mh_home_addr;
      Mobileip.Home_agent.address topo.Scenarios.Topo.ha;
    ]
    @ Option.to_list (Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh)
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun node -> List.map (fun d -> (Net.routing node, d)) dsts)
         (Net.nodes net))
  in
  let i = ref 0 in
  let routing_lookup_ns =
    ns_per_call ~iters:200_000 (fun () ->
        i := if !i + 1 = Array.length pairs then 0 else !i + 1;
        let table, d = Array.unsafe_get pairs !i in
        Routing.lookup table d)
  in
  let packets = Array.map udp_packet payloads in
  let np = Array.length packets in
  let src = addr "36.1.0.2" and dst = addr "131.7.0.200" in
  let wrapped = Array.map (Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src ~dst) packets in
  let k = ref 0 in
  let next () =
    k := if !k + 1 = np then 0 else !k + 1;
    !k
  in
  let encap_wrap_ns =
    ns_per_call ~iters:100_000 (fun () ->
        Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src ~dst packets.(next ()))
  in
  let encap_unwrap_ns =
    ns_per_call ~iters:100_000 (fun () -> Mobileip.Encap.unwrap wrapped.(next ()))
  in
  (* 1520 bytes at MTU 1500: a 1472-byte datagram once tunnelled. *)
  let big = Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src ~dst (udp_packet 1472) in
  let fragment_split_ns =
    ns_per_call ~iters:50_000 (fun () -> Fragment.fragment ~mtu:1500 big)
  in
  let encoded = Array.map Ipv4_packet.encode packets in
  let ipv4_encode_ns =
    ns_per_call ~iters:100_000 (fun () -> Ipv4_packet.encode packets.(next ()))
  in
  let ipv4_decode_ns =
    ns_per_call ~iters:100_000 (fun () -> Ipv4_packet.decode encoded.(next ()))
  in
  let checksum_header_ns =
    ns_per_call ~iters:500_000 (fun () ->
        Ipv4_packet.header_checksum packets.(next ()))
  in
  let request =
    {
      Mobileip.Registration.home = topo.Scenarios.Topo.mh_home_addr;
      home_agent = Mobileip.Home_agent.address topo.Scenarios.Topo.ha;
      care_of = dst;
      lifetime = 300;
      sequence = 1;
    }
  in
  let registration_roundtrip_ns =
    ns_per_call ~iters:100_000 (fun () ->
        Mobileip.Registration.decode_request ~key:"secret"
          (Mobileip.Registration.encode_request ~key:"secret" request))
  in
  (* Schedule-and-dispatch of a no-op event, queue depth ~1k. *)
  let eng = Engine.create () in
  let noop () = () in
  let engine_dispatch_ns =
    ns_per_call ~iters:20 (fun () ->
        for j = 1 to 1024 do
          Engine.after eng (float_of_int j *. 1e-6) noop
        done;
        Engine.run eng)
    /. 1024.0
  in
  let reps = 5 in
  let build_ms = Array.make reps 0.0
  and roam_ms = Array.make reps 0.0
  and home_ms = Array.make reps 0.0 in
  let ms_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e6 in
  for r = 0 to reps - 1 do
    let t0 = Clock.now_ns () in
    let topo = build () in
    build_ms.(r) <- ms_since t0;
    let t0 = Clock.now_ns () in
    Scenarios.Topo.roam topo ();
    roam_ms.(r) <- ms_since t0;
    let t0 = Clock.now_ns () in
    Scenarios.Topo.come_home topo;
    home_ms.(r) <- ms_since t0
  done;
  {
    routing_lookup_ns;
    encap_wrap_ns;
    encap_unwrap_ns;
    fragment_split_ns;
    ipv4_encode_ns;
    ipv4_decode_ns;
    checksum_header_ns;
    registration_roundtrip_ns;
    engine_dispatch_ns;
    topo_build_ms = Stat.median build_ms;
    topo_roam_ms = Stat.median roam_ms;
    topo_come_home_ms = Stat.median home_ms;
  }
