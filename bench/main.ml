(* The benchmark harness.

   Part 1 regenerates every table/figure reproduction (E1-E14) by running
   the corresponding simulation and printing its table — the rows
   EXPERIMENTS.md records.

   Part 2 runs Bechamel micro-benchmarks of the implementation itself:
   wire codecs, encapsulation, routing lookup, grid selection, and a whole
   simulated ping through the Mobile IP tunnel path. *)

open Bechamel
open Toolkit

let addr = Netsim.Ipv4_addr.of_string

(* ---------- micro-benchmark subjects ---------- *)

let sample_packet =
  Netsim.Ipv4_packet.make ~protocol:Netsim.Ipv4_packet.P_udp
    ~src:(addr "36.1.0.5") ~dst:(addr "44.2.0.10")
    (Netsim.Ipv4_packet.Udp
       (Netsim.Udp_wire.make ~src_port:5000 ~dst_port:9 (Bytes.make 512 'x')))

let sample_wire = Netsim.Ipv4_packet.encode sample_packet
let buffer_1500 = Bytes.make 1500 '\042'

let make_routing_table n =
  let table = Netsim.Routing.create () in
  for i = 0 to n - 1 do
    Netsim.Routing.add table
      ~prefix:
        (Netsim.Ipv4_addr.Prefix.make
           (Netsim.Ipv4_addr.of_octets 10 (i mod 256) ((i / 256) mod 256) 0)
           (16 + (i mod 9)))
      ~iface:(Printf.sprintf "if%d" (i mod 4))
      ()
  done;
  table

let routing_table = make_routing_table 100
let routing_table_10 = make_routing_table 10
let routing_table_1k = make_routing_table 1000

(* Destinations cycled per call so the routing cases measure the trie
   walk, not the destination cache.  The cache is direct-mapped on an
   address's low bits, 16 slots; these 64 addresses put four on each
   slot, and cycling them replaces every entry before it is asked for
   again, so each lookup misses. *)
let probe_addrs =
  Array.init 64 (fun i -> Netsim.Ipv4_addr.of_octets 10 (17 * i mod 256) 3 i)

let cycled_lookup table =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 63;
    Netsim.Routing.lookup table (Array.unsafe_get probe_addrs !i)

(* One A --(r)-- B world reused across runs: each run pushes a packet
   from [a] through the router to [b] and drains the queue — the per-hop
   forwarding fast path (lookup, TTL decrement, emit) with tracing gated
   off. *)
let make_forward_world () =
  let net = Netsim.Net.create () in
  let a = Netsim.Net.add_host net "a" in
  let r = Netsim.Net.add_router net "r" in
  let b = Netsim.Net.add_host net "b" in
  let _ =
    Netsim.Net.p2p net ~latency:0.0001
      ~prefix:(Netsim.Ipv4_addr.Prefix.of_string "10.0.1.0/30")
      (a, "if0", addr "10.0.1.1")
      (r, "if0", addr "10.0.1.2")
  in
  let _ =
    Netsim.Net.p2p net ~latency:0.0001
      ~prefix:(Netsim.Ipv4_addr.Prefix.of_string "10.0.2.0/30")
      (r, "if1", addr "10.0.2.1")
      (b, "if0", addr "10.0.2.2")
  in
  Netsim.Routing.add_default (Netsim.Net.routing a) ~gateway:(addr "10.0.1.2")
    ~iface:"if0";
  Netsim.Routing.add_default (Netsim.Net.routing b) ~gateway:(addr "10.0.2.1")
    ~iface:"if0";
  (net, a)

let forward_world =
  lazy
    (let net, a = make_forward_world () in
     Netsim.Net.set_tracing net false;
     (net, a))

(* The same hop with tracing off and a flight-recorder ring attached to
   the net's own trace, so [Trace.emit] stores each event's fields into
   the ring and builds no record: the ring cost the E20 ladder measures
   at workload scale, isolated here per hop for the regression gate. *)
let forward_world_ring =
  lazy
    (let net, a = make_forward_world () in
     Netsim.Net.set_tracing net false;
     Netsim.Trace.attach_ring (Netsim.Net.trace net)
       (Netsim.Trace.make_ring ~capacity:4096);
     (net, a))

let forward_pkt =
  Netsim.Ipv4_packet.make ~protocol:Netsim.Ipv4_packet.P_udp
    ~src:(addr "10.0.1.1") ~dst:(addr "10.0.2.2")
    (Netsim.Ipv4_packet.Raw (Bytes.make 512 'h'))

let forwarding_hop () =
  let net, a = Lazy.force forward_world in
  ignore (Netsim.Net.send a forward_pkt);
  Netsim.Net.run net

let forwarding_hop_ring () =
  let net, a = Lazy.force forward_world_ring in
  ignore (Netsim.Net.send a forward_pkt);
  Netsim.Net.run net

let grid_env =
  {
    Mobileip.Grid.default_environment with
    Mobileip.Grid.ch_mobile_aware = true;
    ch_knows_care_of = true;
  }

let reg_request =
  {
    Mobileip.Registration.home = addr "36.1.0.5";
    home_agent = addr "36.1.0.2";
    care_of = addr "131.7.0.100";
    lifetime = 300;
    sequence = 42;
  }

let reg_wire = Mobileip.Registration.encode_request ~key:"secret" reg_request

let tunnel_ping () =
  (* A complete simulated In-IE ping: build the world, roam, ping through
     the home agent.  Measures end-to-end simulator throughput. *)
  let topo = Scenarios.Topo.build () in
  Netsim.Net.set_tracing topo.Scenarios.Topo.net false;
  Scenarios.Topo.roam topo ();
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  let got = ref false in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt:_ -> got := true);
  Scenarios.Topo.run topo;
  assert !got

(* A retransmission timer re-armed against 1 000 pending events, as TCP
   re-arms it on every ACK.  A cancel takes its event out of the queue in
   O(log n).  The run fails if cancelled events stay queued (the queue
   must hold 1 001 events after each re-arm), and the gate times the
   cancel, which would pay for all 1 000 if it scanned the queue. *)
let rearm_world =
  lazy
    (let e = Netsim.Engine.create () in
     for i = 1 to 1000 do
       Netsim.Engine.schedule e ~at:(1e9 +. float_of_int i) ignore
     done;
     (e, ref (Netsim.Engine.cancellable_after e 1.0 ignore)))

let timer_rearm () =
  let e, cancel = Lazy.force rearm_world in
  !cancel ();
  cancel := Netsim.Engine.cancellable_after e 1.0 ignore;
  assert (Netsim.Engine.pending e = 1001)

(* A frame delivery on a link's lane against 1 000 pending events: the
   append and its dispatch, as [Net] queues a delivery on a link with no
   bandwidth term.  Both are O(1) on the lane, where the heap pays
   O(log n) for each.  The run fails unless the step runs the delivery,
   which leaves the 1 000 events queued. *)
let lane_world =
  lazy
    (let e = Netsim.Engine.create () in
     for i = 1 to 1000 do
       Netsim.Engine.schedule e ~at:(1e12 +. float_of_int i) ignore
     done;
     let runs = ref 0 in
     let lane = Option.get (Netsim.Engine.lane e ~delay:0.010) in
     (e, lane, runs, fun () -> incr runs))

let lane_delivery () =
  let e, lane, runs, deliver = Lazy.force lane_world in
  let before = !runs in
  Netsim.Engine.append lane deliver;
  ignore (Netsim.Engine.step e : bool);
  assert (!runs = before + 1 && Netsim.Engine.pending e = 1000)

let tcp_payload = Bytes.make 8192 'b'

let tcp_transfer ~window () =
  (* An 8 kB windowed TCP transfer over a 50 ms link, in simulation. *)
  let net = Netsim.Net.create () in
  Netsim.Net.set_tracing net false;
  let c = Netsim.Net.add_host net "c" in
  let s = Netsim.Net.add_host net "s" in
  let _ =
    Netsim.Net.p2p net ~latency:0.05
      ~prefix:(Netsim.Ipv4_addr.Prefix.of_string "10.0.0.0/30")
      (c, "if0", addr "10.0.0.1") (s, "if0", addr "10.0.0.2")
  in
  let tc = Transport.Tcp.get c in
  let ts = Transport.Tcp.get s in
  let got = ref 0 in
  Transport.Tcp.listen ts ~port:80 (fun conn ->
      Transport.Tcp.on_receive conn (fun d -> got := !got + Bytes.length d));
  let conn = Transport.Tcp.connect tc ~window ~dst:(addr "10.0.0.2") ~dst_port:80 () in
  Transport.Tcp.send_data conn tcp_payload;
  Netsim.Net.run net;
  assert (!got = 8192)

(* Twenty round trips across a two-router point-to-point world: the
   engine's per-event dispatch cost with nothing else in the loop. *)
let pingpong_proto = Netsim.Ipv4_packet.P_other 252

let pingpong () =
  let net = Netsim.Net.create () in
  Netsim.Net.set_tracing net false;
  let a = Netsim.Net.add_host net "a" in
  let r0 = Netsim.Net.add_router net "r0" in
  let r1 = Netsim.Net.add_router net "r1" in
  let b = Netsim.Net.add_host net "b" in
  let link ?(latency = 0.0005) p (n1, i1, a1) (n2, i2, a2) =
    ignore
      (Netsim.Net.p2p net ~latency
         ~prefix:(Netsim.Ipv4_addr.Prefix.of_string p)
         (n1, i1, addr a1) (n2, i2, addr a2))
  in
  link "10.0.1.0/30" (a, "if0", "10.0.1.1") (r0, "if0", "10.0.1.2");
  link ~latency:0.005 "10.0.2.0/30" (r0, "if1", "10.0.2.1")
    (r1, "if0", "10.0.2.2");
  link "10.0.3.0/30" (r1, "if1", "10.0.3.1") (b, "if0", "10.0.3.2");
  Netsim.Routing.add_default (Netsim.Net.routing a) ~gateway:(addr "10.0.1.2")
    ~iface:"if0";
  Netsim.Routing.add_default (Netsim.Net.routing b) ~gateway:(addr "10.0.3.1")
    ~iface:"if0";
  Netsim.Routing.add_default (Netsim.Net.routing r0)
    ~gateway:(addr "10.0.2.2") ~iface:"if1";
  Netsim.Routing.add_default (Netsim.Net.routing r1)
    ~gateway:(addr "10.0.2.1") ~iface:"if0";
  let sent = ref 1 and got = ref 0 in
  let payload = Netsim.Ipv4_packet.Raw (Bytes.make 64 'q') in
  let fire node ~src ~dst =
    ignore
      (Netsim.Net.send node
         (Netsim.Ipv4_packet.make ~protocol:pingpong_proto ~src:(addr src)
            ~dst:(addr dst) payload))
  in
  let handler node _ (_ : Netsim.Ipv4_packet.t) =
    if node == b then fire b ~src:"10.0.3.2" ~dst:"10.0.1.1"
    else begin
      incr got;
      if !sent < 20 then begin
        incr sent;
        fire a ~src:"10.0.1.1" ~dst:"10.0.3.2"
      end
    end
  in
  Netsim.Net.set_protocol_handler a pingpong_proto handler;
  Netsim.Net.set_protocol_handler b pingpong_proto handler;
  fire a ~src:"10.0.1.1" ~dst:"10.0.3.2";
  Netsim.Net.run net;
  assert (!got = 20)

let micro_tests =
  Test.make_grouped ~name:"mobility4x4"
    [
      Test.make ~name:"checksum-1500B"
        (Staged.stage (fun () -> Netsim.Checksum.compute buffer_1500));
      Test.make ~name:"ipv4-encode-512B"
        (Staged.stage (fun () -> Netsim.Ipv4_packet.encode sample_packet));
      Test.make ~name:"ipv4-decode-512B"
        (Staged.stage (fun () -> Netsim.Ipv4_packet.decode sample_wire));
      Test.make ~name:"encap-wrap-ipip"
        (Staged.stage (fun () ->
             Mobileip.Encap.wrap Mobileip.Encap.Ipip ~src:(addr "131.7.0.100")
               ~dst:(addr "36.1.0.2") sample_packet));
      Test.make ~name:"encap-roundtrip-minimal"
        (Staged.stage (fun () ->
             Mobileip.Encap.unwrap
               (Mobileip.Encap.wrap Mobileip.Encap.Minimal
                  ~src:(addr "131.7.0.100") ~dst:(addr "36.1.0.2")
                  sample_packet)));
      (* Replaces routing-lpm-100-routes, which parsed its address inside
         the timed closure and so mostly timed [Ipv4_addr.of_string]; the
         gate treats the rename as [gone]/[new], never fatal. *)
      Test.make ~name:"routing-lpm-100-routes-cycled"
        (Staged.stage (cycled_lookup routing_table));
      Test.make ~name:"routing-lpm-10-routes"
        (Staged.stage (cycled_lookup routing_table_10));
      Test.make ~name:"routing-lpm-1k-routes"
        (Staged.stage (cycled_lookup routing_table_1k));
      Test.make ~name:"checksum-header-full"
        (Staged.stage (fun () ->
             Netsim.Ipv4_packet.header_checksum sample_packet));
      Test.make ~name:"forwarding-hop" (Staged.stage forwarding_hop);
      (* forwarding-hop with a flight-recorder ring attached: its excess
         over forwarding-hop is the ring stores of one hop's events. *)
      Test.make ~name:"forwarding-hop-ring"
        (Staged.stage forwarding_hop_ring);
      (* The -x64 cases run a 50-400 ns subject 64x per measured run,
         lifting the per-run time into the microseconds, where the OLS
         fit is sound rather than fit through clock-read noise. *)
      Test.make ~name:"grid-best-cell-x64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               ignore (Mobileip.Grid.best grid_env)
             done));
      Test.make ~name:"registration-roundtrip-x64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               ignore (Mobileip.Registration.decode_request ~key:"secret" reg_wire)
             done));
      Test.make ~name:"fragment-3000B-mtu576"
        (Staged.stage (fun () ->
             Netsim.Fragment.fragment ~mtu:576
               (Netsim.Ipv4_packet.make ~protocol:Netsim.Ipv4_packet.P_udp
                  ~src:(addr "1.2.3.4") ~dst:(addr "5.6.7.8")
                  (Netsim.Ipv4_packet.Raw (Bytes.make 3000 'f')))));
      Test.make ~name:"sim-pingpong-unsharded"
        (Staged.stage pingpong);
      Test.make ~name:"sim-tunnel-ping-full-world" (Staged.stage tunnel_ping);
      (* The default world alone: every experiment, soak run and perfbench
         pass pays this before its first packet. *)
      Test.make ~name:"topo-build-default-world"
        (Staged.stage (fun () -> Scenarios.Topo.build ()));
      Test.make ~name:"engine-timer-rearm-1k-pending-x64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               timer_rearm ()
             done));
      Test.make ~name:"engine-link-lane-1k-pending-x64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               lane_delivery ()
             done));
      Test.make ~name:"sim-tcp-8KB-stop-and-wait"
        (Staged.stage (tcp_transfer ~window:1));
      Test.make ~name:"sim-tcp-8KB-window-8"
        (Staged.stage (tcp_transfer ~window:8));
    ]

let run_micro ~quota () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* A short discarded warmup pass first, so the measured pass does not
     fit its line through cold-cache/GC-ramp samples. *)
  let warmup =
    Benchmark.cfg ~limit:40 ~quota:(Time.second 0.02)
      ~sampling:(`Linear 1) ~kde:None ()
  in
  ignore (Benchmark.all warmup instances micro_tests);
  (* Geometric batch growth at 5%/sample spreads the per-sample iteration
     counts over orders of magnitude within the quota, giving the OLS fit
     real leverage at both ends: nanosecond-scale subjects end in
     large-iteration batches (amortising clock-read noise) while the slow
     simulation cases still collect dozens of distinct batch sizes (the
     default near-constant growth gave them degenerate fits, r^2 near or
     below zero). *)
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second quota)
      ~sampling:(`Geometric 1.05) ~stabilize:true ~compaction:false ~kde:None
      ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  (* Containers hiccup: a scheduler preemption lands a multi-millisecond
     spike in a handful of samples, which a plain least-squares fit has no
     defence against (it hits the ~100 us simulation cases hardest, where
     batches are small).  Drop samples whose per-run time exceeds 3x the
     median per-run time before fitting; genuine cost growth stays (the
     median moves with it), only isolated spikes go. *)
  let clock_label = Measure.label Instance.monotonic_clock in
  let trim (b : Benchmark.t) =
    let rate m =
      Measurement_raw.get ~label:clock_label m /. Measurement_raw.run m
    in
    let sorted = Array.map rate b.Benchmark.lr in
    Array.sort compare sorted;
    if Array.length sorted = 0 then b
    else begin
      let median = sorted.(Array.length sorted / 2) in
      let keep =
        Array.of_seq
          (Seq.filter
             (fun m -> rate m <= 3.0 *. median)
             (Array.to_seq b.Benchmark.lr))
      in
      if Array.length keep >= 8 then { b with Benchmark.lr = keep } else b
    end
  in
  Hashtbl.iter
    (fun name b -> Hashtbl.replace raw name (trim b))
    (Hashtbl.copy raw);
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.map
    (fun (name, ols) ->
      let ns_per_run =
        match Analyze.OLS.estimates ols with Some (t :: _) -> Some t | _ -> None
      in
      (name, ns_per_run, Analyze.OLS.r_square ols))
    rows

let print_micro rows =
  Format.printf "@.== Bechamel micro-benchmarks (monotonic clock) ==@.";
  Format.printf "  %-45s %14s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let time =
        match ns with
        | Some t ->
            if t > 1_000_000.0 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1_000.0 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.1f ns" t
        | None -> "-"
      in
      let r2 =
        match r2 with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Format.printf "  %-45s %14s %8s@." name time r2)
    rows

(* Persist the run so the perf trajectory accumulates revision over
   revision; EXPERIMENTS.md and the CI smoke run both read this file. *)
let results_file = "BENCH_results.json"

let write_json rows =
  let module Json = Netsim.Json in
  let opt f = function Some v -> f v | None -> Json.Null in
  let json =
    Json.Obj
      [
        ("schema", Json.String "mobility4x4-bench/1");
        ("clock", Json.String "monotonic");
        ( "results",
          Json.List
            (List.map
               (fun (name, ns, r2) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("ns_per_run", opt (fun v -> Json.Float v) ns);
                     ("r_square", opt (fun v -> Json.Float v) r2);
                   ])
               rows) );
      ]
  in
  let oc = open_out results_file in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %d benchmark results to %s@." (List.length rows)
    results_file

let () =
  let has flag = Array.exists (fun a -> a = flag) Sys.argv in
  let only_micro = has "--micro-only" in
  (* --json-only: the CI smoke path — no experiment tables, results
     written to BENCH_results.json only.  It uses the same measurement
     quota as interactive runs: anything shorter starves the tiny
     (sub-100ns) cases of samples and the OLS fits degrade below the
     point where the regression gate's threshold is meaningful. *)
  let json_only = has "--json-only" in
  (* Micro-benchmarks run before the experiment tables: Bechamel's
     per-sample GC stabilization (a Gc.compact loop inside the quota
     window) slows with heap size, and the experiments grow the heap
     enough that every case would burn its whole quota on one sample. *)
  let rows = run_micro ~quota:2.0 () in
  if not json_only then print_micro rows;
  write_json rows;
  if not (only_micro || json_only) then begin
    Format.printf "@.Internet Mobility 4x4 - experiment reproduction@.";
    Experiments.Registry.run_all Format.std_formatter
  end;
  Format.printf "@.done.@."
