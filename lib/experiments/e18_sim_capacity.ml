(* E18 — simulator capacity: not a figure from the paper, but the harness
   claim behind every figure — the ROADMAP's "runs as fast as the hardware
   allows".  N concurrent UDP request/response flows ping-pong between the
   mobile host (roamed, so every packet crosses the backbone and the
   tunnel) and the correspondent, with per-packet tracing gated off; we
   report end-to-end packets/sec and engine events/sec of host wall time
   (read with [Unix.gettimeofday] around the workload's [Net.run]; the
   engine reads no host clock), published through a Netobs metrics
   registry. *)

open Netsim

let load_levels = [ 8; 32; 128 ]
let exchanges_per_flow = 20
let req_size = 256
let rep_size = 512

type level_result = {
  flows : int;
  delivered : int;  (* datagrams received end-to-end, both directions *)
  expected : int;
  events : int;  (* engine events executed during the workload *)
  wall : float;  (* host wall-clock seconds of the workload's [Net.run] *)
  packets_per_sec : float;
  events_per_sec : float;
}

let run_level registry n =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let net = topo.Scenarios.Topo.net in
  Common.fresh_trace net;
  (* The point of the experiment: the per-hop fast path with trace-event
     construction gated off. *)
  Net.set_tracing net false;
  let mh_udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
  let ch_udp = Transport.Udp_service.get topo.Scenarios.Topo.ch_node in
  let ch_received = ref 0 in
  let mh_received = ref 0 in
  Transport.Udp_service.listen ch_udp ~port:9 (fun svc dgram ->
      incr ch_received;
      ignore
        (Transport.Udp_service.send svc ~src:dgram.Transport.Udp_service.dst
           ~dst:dgram.Transport.Udp_service.src ~src_port:9
           ~dst_port:dgram.Transport.Udp_service.src_port
           (Bytes.make rep_size 'r')));
  let eng = Net.engine net in
  let request i =
    ignore
      (Transport.Udp_service.send mh_udp ~src:topo.Scenarios.Topo.mh_home_addr
         ~dst:topo.Scenarios.Topo.ch_addr ~src_port:(47000 + i) ~dst_port:9
         (Bytes.make req_size 'q'))
  in
  for i = 0 to n - 1 do
    let sent = ref 1 in
    Transport.Udp_service.listen mh_udp ~port:(47000 + i) (fun _ _ ->
        incr mh_received;
        if !sent < exchanges_per_flow then begin
          incr sent;
          request i
        end);
    (* Stagger flow starts so the event queue fills gradually. *)
    Engine.after eng (float_of_int i *. 0.003) (fun () -> request i)
  done;
  let before = Engine.stats eng in
  let t0 = Unix.gettimeofday () in
  Net.run net;
  let wall = Unix.gettimeofday () -. t0 in
  let after = Engine.stats eng in
  let delivered = !ch_received + !mh_received in
  let events = after.Engine.executed - before.Engine.executed in
  let rate count = if wall > 0.0 then float_of_int count /. wall else 0.0 in
  let publish name v =
    Netobs.Metrics.set
      (Netobs.Metrics.gauge registry (Printf.sprintf "e18.%s.flows%d" name n))
      v
  in
  publish "packets_per_sec" (rate delivered);
  publish "events_per_sec" (rate events);
  {
    flows = n;
    delivered;
    expected = 2 * n * exchanges_per_flow;
    events;
    wall;
    packets_per_sec = rate delivered;
    events_per_sec = rate events;
  }

let run () =
  let registry = Netobs.Metrics.create () in
  let results = List.map (run_level registry) load_levels in
  let row r =
    [
      string_of_int r.flows;
      Printf.sprintf "%d/%d" r.delivered r.expected;
      string_of_int r.events;
      Printf.sprintf "%.1f" (r.wall *. 1e3);
      Printf.sprintf "%.0f" r.packets_per_sec;
      Printf.sprintf "%.0f" r.events_per_sec;
    ]
  in
  {
    Table.id = "E18";
    title =
      Printf.sprintf
        "Simulator capacity: %d-exchange UDP ping-pong per flow, tracing \
         gated off"
        exchanges_per_flow;
    paper_claim =
      "harness, not paper: the simulator's per-packet fast path is cheap \
       enough to measure protocol overheads rather than its own";
    columns =
      [
        "concurrent flows";
        "delivered";
        "sim events";
        "wall ms";
        "packets/sec";
        "events/sec";
      ];
    rows = List.map row results;
    notes =
      [
        "packets/sec counts end-to-end datagram deliveries (requests at the \
         CH plus replies at the MH) per host wall-clock second of the \
         workload's Net.run, timed by the experiment; events/sec is the \
         engine's executed-event rate over the same window";
        "absolute rates vary with the host; the interesting signal is that \
         rates hold (or grow) as the flow count scales 8 -> 32 -> 128";
      ];
  }
