(* The observability layer: metrics registry semantics, snapshot
   determinism, JSON parsing/printing, JSONL round-trips of trace events,
   the per-flow trace index, engine statistics, flow spans, and an
   integration test exporting a real world's trace. *)

open Netsim

let addr = Ipv4_addr.of_string

(* ---------- metrics ---------- *)

let test_counter () =
  let reg = Netobs.Metrics.create () in
  let c = Netobs.Metrics.counter reg "packets_total" in
  Netobs.Metrics.incr c;
  Netobs.Metrics.incr ~by:5 c;
  Alcotest.(check int) "incr" 6 (Netobs.Metrics.counter_value c);
  (* find-or-create: same name is the same instrument *)
  Netobs.Metrics.incr (Netobs.Metrics.counter reg "packets_total");
  Alcotest.(check int) "shared" 7 (Netobs.Metrics.counter_value c)

let test_gauge () =
  let reg = Netobs.Metrics.create () in
  let g = Netobs.Metrics.gauge reg "depth" in
  Alcotest.(check (float 0.0)) "initial" 0.0 (Netobs.Metrics.gauge_value g);
  Netobs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Netobs.Metrics.gauge_value g)

let hist_view reg name =
  match
    List.find_opt
      (fun s -> s.Netobs.Metrics.name = name)
      (Netobs.Metrics.snapshot reg)
  with
  | Some { Netobs.Metrics.value = Netobs.Metrics.Histogram h; _ } -> h
  | _ -> Alcotest.failf "histogram %s not in snapshot" name

let test_histogram () =
  let reg = Netobs.Metrics.create () in
  let h =
    Netobs.Metrics.histogram reg ~buckets:[| 1.0; 10.0; 100.0 |] "lat"
  in
  List.iter (Netobs.Metrics.observe h) [ 0.5; 5.0; 10.0; 50.0; 500.0 ];
  let v = hist_view reg "lat" in
  Alcotest.(check (list int))
    "bucket counts (upper bounds inclusive)" [ 1; 2; 1 ]
    (Array.to_list (Array.map snd v.Netobs.Metrics.buckets));
  Alcotest.(check int) "overflow" 1 v.Netobs.Metrics.overflow;
  Alcotest.(check int) "count" 5 v.Netobs.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 565.5 v.Netobs.Metrics.sum;
  Alcotest.(check (float 0.0)) "min" 0.5 v.Netobs.Metrics.minimum;
  Alcotest.(check (float 0.0)) "max" 500.0 v.Netobs.Metrics.maximum

let test_kind_clash () =
  let reg = Netobs.Metrics.create () in
  ignore (Netobs.Metrics.counter reg "x");
  Alcotest.(check bool) "gauge over counter rejected" true
    (try
       ignore (Netobs.Metrics.gauge reg "x");
       false
     with Invalid_argument _ -> true)

let test_snapshot_deterministic () =
  let reg = Netobs.Metrics.create () in
  (* Registration order must not matter. *)
  Netobs.Metrics.set (Netobs.Metrics.gauge reg "zeta") 1.0;
  Netobs.Metrics.incr (Netobs.Metrics.counter reg "alpha");
  ignore (Netobs.Metrics.histogram reg "mid");
  let names =
    List.map (fun s -> s.Netobs.Metrics.name) (Netobs.Metrics.snapshot reg)
  in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] names;
  let render () =
    Json.to_string
      (Netobs.Metrics.snapshot_to_json (Netobs.Metrics.snapshot reg))
  in
  Alcotest.(check string) "stable rendering" (render ()) (render ())

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.(
      Obj
        [
          ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 0.0215);
          ("whole_float", Float 3.0);
          ("string", String "a\"b\\c\nd\te\001f");
          ("list", List [ Int 1; String "x"; Obj [ ("k", Bool false) ] ]);
        ])
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [ "{"; "tru"; "1 2"; "[1,]"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_whitespace () =
  match Json.of_string "  { \"a\" : [ 1 , 2.5 , \"x\\n\" ] }  " with
  | Ok j ->
      Alcotest.(check bool) "parsed" true
        (Json.member "a" j
        = Some
            (Json.List
               [ Json.Int 1; Json.Float 2.5;
                 Json.String "x\n" ]))
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ---------- trace events: JSONL round trip ---------- *)

let udp_packet ?(size = 32) () =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(addr "36.1.0.5")
    ~dst:(addr "44.2.0.10")
    (Ipv4_packet.Udp
       (Udp_wire.make ~src_port:5000 ~dst_port:9 (Bytes.make size 'x')))

let tunneled_packet () =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_ipip ~src:(addr "36.1.0.2")
    ~dst:(addr "131.7.0.100")
    (Ipv4_packet.Encap (udp_packet ()))

let icmp_error_packet () =
  let context = Icmp_wire.quote_context (Ipv4_packet.encode (udp_packet ())) in
  Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src:(addr "10.0.0.1")
    ~dst:(addr "44.2.0.10")
    (Ipv4_packet.Icmp
       (Icmp_wire.Dest_unreachable
          { code = Icmp_wire.Admin_prohibited; context }))

let sample_trace ?(t = Trace.create ()) () =
  let frame id flow pkt = { Trace.id; flow; pkt } in
  let plain = frame 1 7 (udp_packet ()) in
  let outer = frame 2 7 (tunneled_packet ()) in
  Trace.record t ~time:0.0 (Trace.Send { node = "ch"; frame = plain });
  Trace.record t ~time:0.001
    (Trace.Transmit { link = "home-lan"; frame = plain; bytes = 60 });
  Trace.record t ~time:0.002
    (Trace.Forward
       { node = "hr"; in_iface = "if0"; out_iface = "if1"; frame = plain });
  Trace.record t ~time:0.003 (Trace.Encapsulate { node = "ha"; frame = outer });
  Trace.record t ~time:0.004
    (Trace.Transmit { link = "b0<->b1"; frame = outer; bytes = 80 });
  Trace.record t ~time:0.005
    (Trace.Drop { node = "vr"; reason = Trace.Firewall "policy-7"; frame = outer });
  Trace.record t ~time:0.006
    (Trace.Drop { node = "vr"; reason = Trace.Ttl_expired; frame = outer });
  Trace.record t ~time:0.007 (Trace.Decapsulate { node = "mh"; frame = plain });
  Trace.record t ~time:0.008 (Trace.Deliver { node = "mh"; frame = plain });
  Trace.record t ~time:0.009
    (Trace.Icmp_error
       {
         node = "hr";
         reason = Trace.Ingress_filter;
         frame = frame 3 7 (icmp_error_packet ());
       });
  t

let test_event_json_roundtrip () =
  List.iter
    (fun (r : Trace.record) ->
      let line = Netobs.Export.line_of_record r in
      match Json.of_string line with
      | Error e -> Alcotest.failf "line does not parse: %s (%s)" e line
      | Ok j -> (
          match Netobs.Export.record_of_json j with
          | Error e -> Alcotest.failf "record does not rebuild: %s" e
          | Ok r' ->
              Alcotest.(check bool)
                (Printf.sprintf "round trip at t=%g" r.Trace.time)
                true (r = r')))
    (Trace.records (sample_trace ()))

(* ---------- the per-flow trace index ---------- *)

let test_flow_index () =
  let t = sample_trace () in
  let other = { Trace.id = 9; flow = 8; pkt = udp_packet () } in
  Trace.record t ~time:0.010
    (Trace.Transmit { link = "home-lan"; frame = other; bytes = 44 });
  Alcotest.(check (list int)) "flows" [ 7; 8 ] (Trace.flows t);
  Alcotest.(check int) "flow 7 transmissions" 2 (Trace.transmissions t ~flow:7);
  Alcotest.(check int) "flow 7 wire bytes" 140 (Trace.wire_bytes t ~flow:7);
  Alcotest.(check int) "flow 8 wire bytes" 44 (Trace.wire_bytes t ~flow:8);
  (* flow_records must equal a filter of the full log, in order *)
  let expected =
    List.filter
      (fun r -> (Trace.frame_of r.Trace.event).Trace.flow = 7)
      (Trace.records t)
  in
  Alcotest.(check bool) "flow_records = ordered filter" true
    (Trace.flow_records t ~flow:7 = expected);
  Alcotest.(check int) "drops indexed" 2
    (List.length (Trace.drops t ~flow:7));
  Trace.clear t;
  Alcotest.(check (list int)) "clear resets index" [] (Trace.flows t);
  Alcotest.(check int) "clear resets counters" 0 (Trace.transmissions t ~flow:7)

let test_trace_sink () =
  let seen = ref 0 in
  let t = Trace.create () in
  ignore (Trace.add_observer t (fun _ -> incr seen));
  let t = sample_trace ~t () in
  Alcotest.(check int) "observer saw every record" (Trace.length t) !seen

(* ---------- spans ---------- *)

let test_span () =
  let t = sample_trace () in
  let s = Netobs.Span.of_flow t ~flow:7 in
  Alcotest.(check (float 1e-9)) "latency" 0.008
    (Option.get s.Netobs.Span.latency);
  Alcotest.(check int) "transmissions" 2 s.Netobs.Span.transmissions;
  Alcotest.(check int) "wire bytes" 140 s.Netobs.Span.wire_bytes;
  Alcotest.(check int) "encap depth" 1 s.Netobs.Span.encap_depth;
  Alcotest.(check int) "drops" 2 (List.length s.Netobs.Span.drops);
  Alcotest.(check (list string)) "delivered to" [ "mh" ]
    s.Netobs.Span.delivered_to;
  Alcotest.(check int) "one span per flow" 1
    (List.length (Netobs.Span.all t))

(* Every byte value encodes as two lower-case hex digits, as
   [Printf "%02x"] would, and decodes back. *)
let test_hex_codec () =
  let all = Bytes.init 256 Char.chr in
  let expected =
    String.concat "" (List.init 256 (fun c -> Printf.sprintf "%02x" c))
  in
  let hex = Netobs.Export.hex_of_bytes all in
  Alcotest.(check string) "every byte" expected hex;
  Alcotest.(check string) "empty" "" (Netobs.Export.hex_of_bytes Bytes.empty);
  match Netobs.Export.bytes_of_hex hex with
  | Ok b -> Alcotest.(check bool) "round trip" true (Bytes.equal b all)
  | Error e -> Alcotest.fail e

(* ---------- engine stats ---------- *)

let test_engine_stats () =
  let e = Engine.create () in
  let rec chain n =
    if n > 0 then Engine.after e 0.1 (fun () -> chain (n - 1))
  in
  chain 10;
  Engine.run ~max_events:5 e;
  let st = Engine.stats e in
  Alcotest.(check int) "executed" 5 st.Engine.executed;
  Alcotest.(check int) "still pending" 1 st.Engine.pending;
  Alcotest.(check int) "truncation observable" 1 st.Engine.truncated;
  Alcotest.(check bool) "max depth tracked" true (st.Engine.max_pending >= 1);
  Engine.run e;
  let st = Engine.stats e in
  Alcotest.(check int) "chain finished" 10 st.Engine.executed;
  Alcotest.(check int) "no new truncation" 1 st.Engine.truncated;
  Alcotest.(check int) "drained" 0 st.Engine.pending;
  Alcotest.(check bool) "sim time advanced" true (st.Engine.sim_time > 0.9)

(* ---------- integration: a real world's trace exports and re-parses ---- *)

let test_trace_jsonl_integration () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam topo ();
  let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
  let got = ref false in
  Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
    (fun ~rtt:_ -> got := true);
  Scenarios.Topo.run topo;
  Alcotest.(check bool) "ping delivered" true !got;
  let trace = Netsim.Net.trace topo.Scenarios.Topo.net in
  let file = Filename.temp_file "mobility4x4" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      let written = Netobs.Export.write_trace_jsonl oc trace in
      close_out oc;
      Alcotest.(check int) "line count = Trace.length" (Trace.length trace)
        written;
      let ic = open_in file in
      let parsed = Netobs.Export.read_trace_jsonl ic in
      close_in ic;
      match parsed with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok rs ->
          Alcotest.(check int) "all lines re-parse" written (List.length rs);
          Alcotest.(check bool) "records identical" true
            (rs = Trace.records trace))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "kind clash" `Quick test_kind_clash;
        Alcotest.test_case "snapshot deterministic" `Quick
          test_snapshot_deterministic;
        Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "json whitespace" `Quick test_json_whitespace;
        Alcotest.test_case "trace event jsonl round trip" `Quick
          test_event_json_roundtrip;
        Alcotest.test_case "per-flow index" `Quick test_flow_index;
        Alcotest.test_case "trace sink" `Quick test_trace_sink;
        Alcotest.test_case "flow span" `Quick test_span;
        Alcotest.test_case "hex codec" `Quick test_hex_codec;
        Alcotest.test_case "engine stats" `Quick test_engine_stats;
        Alcotest.test_case "trace jsonl integration" `Quick
          test_trace_jsonl_integration;
      ] );
  ]
