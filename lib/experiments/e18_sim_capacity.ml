(* E18 — simulator capacity: not a figure from the paper, but the harness
   claim behind every figure — the ROADMAP's "runs as fast as the hardware
   allows".  N concurrent UDP request/response flows ping-pong between the
   mobile host (roamed, so every packet crosses the backbone and the
   tunnel) and the correspondent, with per-packet tracing gated off; we
   report end-to-end packets/sec and engine events/sec of host CPU time
   (read with [Sys.time] around the workload's [Net.run]; the engine reads
   no host clock).  E20 and the [profile] subcommand run the same
   workload through [workload]. *)

open Netsim

let load_levels = [ 8; 32; 128 ]
let exchanges_per_flow = 20
let req_size = 256
let rep_size = 512

type run = {
  delivered : int;
  expected : int;
  events : int;
  route_lookups : int;
  hook_calls : int;
  cpu_s : float;
  minor_words : float;
}

let nothing (_ : Net.t) () = ()

let workload ?record_rtt ~flows ~install () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let net = topo.Scenarios.Topo.net in
  Common.fresh_trace net;
  (* The point of the experiment: the per-hop fast path with trace-event
     construction gated off. *)
  Net.set_tracing net false;
  let teardown = install net in
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
  let stamps = Array.make flows 0.0 in
  let request i =
    if record_rtt <> None then stamps.(i) <- Engine.now eng;
    ignore
      (Transport.Udp_service.send mh_udp ~src:topo.Scenarios.Topo.mh_home_addr
         ~dst:topo.Scenarios.Topo.ch_addr ~src_port:(47000 + i) ~dst_port:9
         (Bytes.make req_size 'q'))
  in
  for i = 0 to flows - 1 do
    let sent = ref 1 in
    Transport.Udp_service.listen mh_udp ~port:(47000 + i) (fun _ _ ->
        incr mh_received;
        (match record_rtt with
        | Some f -> f ((Engine.now eng -. stamps.(i)) *. 1e3)
        | None -> ());
        if !sent < exchanges_per_flow then begin
          incr sent;
          request i
        end);
    (* Stagger flow starts so the event queue fills gradually. *)
    Engine.after eng (float_of_int i *. 0.003) (fun () -> request i)
  done;
  let events0 = (Net.stats net).Engine.executed in
  let lookups0 = Net.route_lookups net in
  let hooks0 = Net.hook_calls net in
  let c0 = Sys.time () in
  let w0 = Gc.minor_words () in
  Net.run net;
  let minor_words = Gc.minor_words () -. w0 in
  let cpu_s = Sys.time () -. c0 in
  teardown ();
  {
    delivered = !ch_received + !mh_received;
    expected = 2 * flows * exchanges_per_flow;
    events = (Net.stats net).Engine.executed - events0;
    route_lookups = Net.route_lookups net - lookups0;
    hook_calls = Net.hook_calls net - hooks0;
    cpu_s;
    minor_words;
  }

let profile ?(flows = 128) () =
  let timed = workload ~flows ~install:nothing () in
  let tally = Netobs.Profile.tally () in
  let install net =
    let trace = Net.trace net in
    let observer = Trace.add_observer trace (Netobs.Profile.count tally) in
    fun () -> Trace.remove_observer trace observer
  in
  ignore (workload ~flows ~install ());
  {
    Netobs.Profile.flows;
    delivered = timed.delivered;
    expected = timed.expected;
    cpu_s = timed.cpu_s;
    counts =
      [
        ("engine-events", timed.events);
        ("route-lookups", timed.route_lookups);
        ("hook-calls", timed.hook_calls);
      ]
      @ Netobs.Profile.kind_counts tally
      @ [ ("wire-bytes", Netobs.Profile.wire_bytes tally) ];
  }

let run () =
  let results =
    List.map
      (fun flows -> (flows, workload ~flows ~install:nothing ()))
      load_levels
  in
  let rate count r =
    if r.cpu_s > 0.0 then float_of_int count /. r.cpu_s else 0.0
  in
  let row (flows, r) =
    [
      string_of_int flows;
      Printf.sprintf "%d/%d" r.delivered r.expected;
      string_of_int r.events;
      Printf.sprintf "%.1f" (r.cpu_s *. 1e3);
      Printf.sprintf "%.0f" (rate r.delivered r);
      Printf.sprintf "%.0f" (rate r.events r);
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
        "cpu ms";
        "packets/sec";
        "events/sec";
      ];
    rows = List.map row results;
    notes =
      [
        "packets/sec counts end-to-end datagram deliveries (requests at the \
         CH plus replies at the MH) per host CPU second of the workload's \
         Net.run, timed by the experiment; events/sec is the engine's \
         executed-event rate over the same window";
        "absolute rates vary with the host; the interesting signal is that \
         rates hold (or grow) as the flow count scales 8 -> 32 -> 128";
      ];
  }
