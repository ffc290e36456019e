(* The flight recorder, the pcap exporter, the composable trace taps, the
   bucket-interpolated histogram percentiles and the profile's exact
   counts — the observability additions that ride on top of the trace
   tee. *)

open Netsim

let addr = Ipv4_addr.of_string

(* ---------- synthetic trace material ---------- *)

let mk_pkt ?(len = 32) i =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp
    ~src:(addr "10.0.1.1") ~dst:(addr "10.0.2.2")
    (Ipv4_packet.Udp
       (Udp_wire.make ~src_port:(4000 + i) ~dst_port:9 (Bytes.make len 'p')))

let transmit ?(flow = 0) ?(time = 0.0) i =
  {
    Trace.time;
    event =
      Trace.Transmit
        {
          link = "a-b";
          frame = { Trace.id = i; flow; pkt = mk_pkt i };
          bytes = 32;
        };
  }

let deliver ?(flow = 0) ?(time = 0.0) i =
  {
    Trace.time;
    event =
      Trace.Deliver { node = "b"; frame = { Trace.id = i; flow; pkt = mk_pkt i } };
  }

(* ---------- recorder ring ---------- *)

let ids t =
  List.map
    (fun r -> (Trace.frame_of r.Trace.event).Trace.id)
    (Trace.ring_records t)

let test_ring_basics () =
  let r = Trace.make_ring ~capacity:4 () in
  Alcotest.(check (list int)) "empty" [] (ids r);
  List.iter (fun i -> Trace.ring_store_record r (transmit i)) [ 0; 1; 2 ];
  Alcotest.(check (list int)) "partial fill keeps order" [ 0; 1; 2 ] (ids r);
  List.iter (fun i -> Trace.ring_store_record r (transmit i)) [ 3; 4; 5 ];
  Alcotest.(check (list int)) "wraps to the most recent" [ 2; 3; 4; 5 ] (ids r);
  Alcotest.(check int) "seen counts everything" 6 (Trace.ring_seen r);
  Alcotest.(check int) "kept counts stores" 6 (Trace.ring_kept r);
  Alcotest.(check int) "length is capped" 4 (Trace.ring_length r);
  Alcotest.(check (list int))
    "tail takes the last k" [ 4; 5 ]
    (List.map
       (fun r -> (Trace.frame_of r.Trace.event).Trace.id)
       (Trace.ring_tail ~last:2 r));
  Trace.ring_clear r;
  Alcotest.(check (list int)) "clear empties" [] (ids r)

let test_ring_sampling () =
  let r = Trace.make_ring ~sample_every:3 ~seed:7 ~capacity:64 () in
  for i = 0 to 99 do
    Trace.ring_store_record r (transmit ~flow:(i mod 10) i)
  done;
  (* whole flows are in or out: every surviving record's flow passes the
     same predicate [sampled] exposes *)
  Alcotest.(check bool)
    "kept records come from sampled flows only" true
    (List.for_all
       (fun rec_ ->
         Trace.ring_sampled r (Trace.frame_of rec_.Trace.event).Trace.flow)
       (Trace.ring_records r));
  Alcotest.(check bool)
    "sampling dropped something" true
    (Trace.ring_kept r < Trace.ring_seen r)

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring keeps exactly the last capacity records"
    ~count:200
    QCheck.(pair (1 -- 20) (list_of_size Gen.(0 -- 60) (0 -- 1000)))
    (fun (capacity, xs) ->
      let r = Trace.make_ring ~capacity () in
      List.iteri (fun i _ -> Trace.ring_store_record r (transmit i)) xs;
      let n = List.length xs in
      let expect = List.init (min n capacity) (fun i -> n - min n capacity + i) in
      ids r = expect)

let prop_sampling_deterministic =
  QCheck.Test.make ~name:"flow sampling is a pure function of (flow, seed)"
    ~count:200
    QCheck.(pair (0 -- 1_000_000) (0 -- 1_000_000))
    (fun (seed, flow) ->
      let a = Trace.make_ring ~sample_every:4 ~seed ~capacity:1 () in
      let b = Trace.make_ring ~sample_every:4 ~seed ~capacity:1 () in
      Trace.ring_sampled a flow = Trace.ring_sampled b flow)

(* ---------- the one emit ---------- *)

let kinds =
  [|
    Trace.k_send; Trace.k_transmit; Trace.k_forward; Trace.k_drop;
    Trace.k_deliver; Trace.k_encapsulate; Trace.k_decapsulate;
    Trace.k_icmp_error;
  |]

(* The event [Trace.emit] must build for kind number [k], written out
   here independently of the trace's own decoder: every field a kind does
   not carry is dropped. *)
let expected_event k ~name ~in_iface ~out_iface ~reason ~bytes frame =
  match k with
  | 0 -> Trace.Send { node = name; frame }
  | 1 -> Trace.Transmit { link = name; frame; bytes }
  | 2 -> Trace.Forward { node = name; in_iface; out_iface; frame }
  | 3 -> Trace.Drop { node = name; reason; frame }
  | 4 -> Trace.Deliver { node = name; frame }
  | 5 -> Trace.Encapsulate { node = name; frame }
  | 6 -> Trace.Decapsulate { node = name; frame }
  | _ -> Trace.Icmp_error { node = name; reason; frame }

let gen_reason =
  QCheck.Gen.(
    oneof
      [
        oneofl
          Trace.
            [
              Ingress_filter; Transit_filter; Ttl_expired; No_route;
              Mtu_exceeded; Arp_unresolved; Not_for_me; Link_down; Link_loss;
              Link_flap; Partitioned; Reassembly_timeout;
            ];
        map (fun s -> Trace.Firewall s) (string_size ~gen:printable (0 -- 8));
        map (fun s -> Trace.Custom s) (string_size ~gen:printable (0 -- 8));
      ])

type emit_case = {
  k : int;
  name : string;
  in_iface : string;
  out_iface : string;
  reason : Trace.drop_reason;
  id : int;
  flow : int;
  bytes : int;
  time : float;
}

let gen_emit_case =
  let name = QCheck.Gen.(string_size ~gen:printable (0 -- 6)) in
  QCheck.Gen.(
    map
      (fun ((k, n, i, o), (reason, id, flow, (bytes, time))) ->
        {
          k; name = n; in_iface = i; out_iface = o; reason; id; flow; bytes;
          time;
        })
      (pair
         (quad (0 -- 7) name name name)
         (quad gen_reason (0 -- 100_000) (0 -- 100_000)
            (pair (0 -- 65_535) (float_bound_inclusive 1000.0)))))

(* The three paths of [Trace.emit], for all eight kinds.  With an
   observer attached it hands the observer exactly the record
   [Trace.record] would, stamped from the time cell; with only a ring,
   the ring holds that record and the log stays empty; with nothing
   attached, nothing is logged or stored. *)
let prop_emit_paths =
  QCheck.Test.make ~name:"emit: observer, ring-only and idle paths"
    ~count:300
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "kind %d %S %S %S id %d flow %d bytes %d t %h" c.k
           c.name c.in_iface c.out_iface c.id c.flow c.bytes c.time)
       gen_emit_case)
    (fun c ->
      let pkt = mk_pkt (c.id mod 1000) in
      let frame = { Trace.id = c.id; flow = c.flow; pkt } in
      let event =
        expected_event c.k ~name:c.name ~in_iface:c.in_iface
          ~out_iface:c.out_iface ~reason:c.reason ~bytes:c.bytes frame
      in
      let emit t =
        Trace.set_time_source t (Float.Array.make 1 c.time);
        Trace.emit t kinds.(c.k) c.name ~in_iface:c.in_iface
          ~out_iface:c.out_iface ~reason:c.reason ~id:c.id ~flow:c.flow
          ~bytes:c.bytes pkt
      in
      let quiet () =
        let t = Trace.create () in
        Trace.set_enabled t false;
        t
      in
      let observed t =
        let seen = ref [] in
        ignore (Trace.add_observer t (fun r -> seen := r :: !seen));
        seen
      in
      (* observer path, against [Trace.record] *)
      let by_emit = quiet () and by_record = quiet () in
      let seen_emit = observed by_emit and seen_record = observed by_record in
      emit by_emit;
      Trace.record by_record ~time:c.time event;
      let observer_ok =
        !seen_emit = [ { Trace.time = c.time; event } ]
        && !seen_emit = !seen_record
      in
      (* ring-only path *)
      let t = quiet () in
      let ring = Trace.make_ring ~capacity:4 () in
      Trace.attach_ring t ring;
      emit t;
      let ring_ok =
        Trace.ring_records ring = [ { Trace.time = c.time; event } ]
        && Trace.length t = 0
      in
      (* idle path *)
      let t = quiet () in
      let detached = Trace.make_ring ~capacity:4 () in
      Trace.attach_ring t detached;
      Trace.detach_ring t detached;
      emit t;
      let idle_ok =
        Trace.length t = 0 && Trace.records t = []
        && Trace.ring_seen detached = 0
      in
      observer_ok && ring_ok && idle_ok)

(* ---------- trace tee ---------- *)

let test_tee_identity () =
  let seen_a = ref [] and seen_b = ref [] in
  let t = Trace.create () in
  Trace.set_enabled t false;
  let a = Trace.add_observer t (fun r -> seen_a := r :: !seen_a) in
  let b = Trace.add_observer t (fun r -> seen_b := r :: !seen_b) in
  Alcotest.(check bool)
    "observers keep a disabled trace interested" true (Trace.interested t);
  Trace.record t ~time:0.5 (transmit 1).Trace.event;
  Trace.record t ~time:0.75 (deliver 1).Trace.event;
  Alcotest.(check int) "first observer saw both" 2 (List.length !seen_a);
  Alcotest.(check bool)
    "both observers saw the identical records" true (!seen_a = !seen_b);
  (* after removal the tee no longer forces interest *)
  Trace.remove_observer t a;
  Trace.remove_observer t b;
  Trace.remove_observer t b;
  Alcotest.(check bool)
    "uninterested once observers are gone" false (Trace.interested t);
  Trace.record t ~time:1.0 (transmit 2).Trace.event;
  Alcotest.(check int) "removed observers see nothing" 2 (List.length !seen_a)

let test_recorder_as_sink () =
  let r = Trace.make_ring ~capacity:8 () in
  let t = Trace.create () in
  Trace.attach_ring t r;
  Trace.attach_ring t r;
  (* idempotent: one attachment, one store per record *)
  Trace.record t ~time:1.0 (transmit 3).Trace.event;
  Alcotest.(check (list int)) "ring captured via the tee" [ 3 ] (ids r);
  Trace.detach_ring t r;
  Trace.record t ~time:2.0 (transmit 4).Trace.event;
  Alcotest.(check (list int)) "uninstall detaches" [ 3 ] (ids r)

(* ---------- per-trace rings on a live world ---------- *)

(* A roamed world with ICMP error signaling.  The CH, on the home
   segment, sends a datagram to the MH's home address: the home agent
   tunnels it (send, transmit, forward, encapsulate, decapsulate,
   deliver).  The MH answers with Out-DH pinned: the home boundary's
   ingress filter drops it and sends an ICMP error, which the home agent
   tunnels back to the MH. *)
let live_world () =
  let open Scenarios in
  let w =
    Topo.build ~ch_position:Topo.Inside_home ~filtering:Topo.ingress_only ()
  in
  Net.enable_error_signaling w.Topo.net;
  w

let drive w =
  let open Scenarios in
  Topo.roam_static w ();
  Mobileip.Mobile_host.pin_method w.Topo.mh ~dst:w.Topo.ch_addr
    (Some Mobileip.Grid.Out_DH);
  let ch_udp = Transport.Udp_service.get w.Topo.ch_node in
  let mh_udp = Transport.Udp_service.get w.Topo.mh_node in
  Transport.Udp_service.listen mh_udp ~port:7 (fun svc d ->
      ignore
        (Transport.Udp_service.send svc ~src:d.Transport.Udp_service.dst
           ~dst:d.Transport.Udp_service.src ~src_port:7
           ~dst_port:d.Transport.Udp_service.src_port (Bytes.make 8 'z')));
  ignore
    (Transport.Udp_service.send ch_udp ~dst:w.Topo.mh_home_addr
       ~src_port:7000 ~dst_port:7 (Bytes.make 64 'u'));
  Topo.run w

let kind_name (r : Trace.record) =
  match r.Trace.event with
  | Trace.Send _ -> "send"
  | Transmit _ -> "transmit"
  | Forward _ -> "forward"
  | Drop _ -> "drop"
  | Deliver _ -> "deliver"
  | Encapsulate _ -> "encapsulate"
  | Decapsulate _ -> "decapsulate"
  | Icmp_error _ -> "icmp-error"

(* The same world and traffic twice: once with the recorder installed on
   a trace whose log is off (the [emit_*] ring fast path, plus [record]'s
   replay for the other kinds), once fed by an observer on a logging
   trace (every event through [Trace.record]).  Both must capture the
   same events. *)
let test_ring_path_matches_record_path () =
  let ring_only = live_world () in
  let ring_trace = Net.trace ring_only.Scenarios.Topo.net in
  Net.set_tracing ring_only.Scenarios.Topo.net false;
  let a = Trace.make_ring ~capacity:4096 () in
  Trace.attach_ring ring_trace a;
  drive ring_only;
  let logged = live_world () in
  let logged_trace = Net.trace logged.Scenarios.Topo.net in
  let b = Trace.make_ring ~capacity:4096 () in
  ignore (Trace.add_observer logged_trace (Trace.ring_store_record b));
  drive logged;
  Alcotest.(check int) "ring-only world logs nothing" 0
    (Trace.length ring_trace);
  Alcotest.(check bool) "observed world logs" true
    (Trace.length logged_trace > 0);
  Alcotest.(check (list string))
    "every event kind occurs"
    [
      "decapsulate"; "deliver"; "drop"; "encapsulate"; "forward";
      "icmp-error"; "send"; "transmit";
    ]
    (List.sort_uniq String.compare
       (List.map kind_name (Trace.ring_records a)));
  Alcotest.(check bool) "nothing wrapped" true
    (Trace.ring_seen a < Trace.ring_capacity a);
  Alcotest.(check int) "same events seen" (Trace.ring_seen b)
    (Trace.ring_seen a);
  Alcotest.(check bool) "identical records" true
    (Trace.ring_records a = Trace.ring_records b)

(* Two worlds in one process: a recorder installed on the first world's
   trace sees nothing of the second world's run. *)
let test_ring_is_per_trace () =
  let mine = live_world () in
  let r = Trace.make_ring ~capacity:64 () in
  Trace.attach_ring (Net.trace mine.Scenarios.Topo.net) r;
  let other = live_world () in
  Net.set_tracing other.Scenarios.Topo.net false;
  drive other;
  Alcotest.(check int) "no events from the other world" 0
    (Trace.ring_seen r);
  drive mine;
  Alcotest.(check bool) "its own world's events arrive" true
    (Trace.ring_seen r > 0)

(* ---------- pcap ---------- *)

let test_pcap_golden_bytes () =
  let hex b =
    String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (Bytes.to_seq b))))
  in
  Alcotest.(check string)
    "file header, byte for byte"
    "d4c3b2a1020004000000000000000000ffff000065000000"
    (hex (Netobs.Pcap.file_header ()));
  Alcotest.(check string)
    "record header for t=1.000002s len=5"
    "01000000020000000500000005000000"
    (hex (Netobs.Pcap.record_header ~time:1.000002 ~len:5));
  (* microsecond rounding carries into the seconds field *)
  Alcotest.(check string)
    "usec rounding carry at .9999996"
    "02000000000000000100000001000000"
    (hex (Netobs.Pcap.record_header ~time:1.9999996 ~len:1))

let test_pcap_roundtrip () =
  let records =
    [
      transmit ~flow:1 ~time:0.001 0;
      deliver ~flow:1 ~time:0.002 0;
      (* not a wire event: skipped *)
      transmit ~flow:2 ~time:1.5 1;
      transmit ~flow:1 ~time:2.25 2;
    ]
  in
  let path = Filename.temp_file "m4x4pcap" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let written = Netobs.Pcap.write_file path records in
      Alcotest.(check int) "only Transmit events become packets" 3 written;
      let packets =
        match Netobs.Pcap.read_file path with
        | Ok p -> p
        | Error e -> Alcotest.failf "reader rejected our own file: %s" e
      in
      let expected = List.filter_map Netobs.Pcap.packet_of_record records in
      Alcotest.(check int) "reader finds every packet" 3 (List.length packets);
      List.iter2
        (fun (t_got, payload_got) (t_want, payload_want) ->
          Alcotest.(check bool)
            "payload round-trips byte for byte" true
            (Bytes.equal payload_got payload_want);
          Alcotest.(check (float 1e-6)) "timestamp survives" t_want t_got)
        packets expected;
      (* and the file is bit-identical when rewritten from what was read *)
      let path2 = Filename.temp_file "m4x4pcap" ".pcap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path2)
        (fun () ->
          let oc = open_out_bin path2 in
          Netobs.Pcap.write_header oc;
          List.iter
            (fun (time, payload) -> Netobs.Pcap.append_packet oc ~time payload)
            packets;
          close_out oc;
          let slurp p = In_channel.with_open_bin p In_channel.input_all in
          Alcotest.(check string)
            "whole file byte-identical through read/rewrite" (slurp path)
            (slurp path2)))

let test_pcap_reader_rejects () =
  let reject name bytes =
    let path = Filename.temp_file "m4x4bad" ".pcap" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_bytes oc bytes;
        close_out oc;
        match Netobs.Pcap.read_file path with
        | Ok _ -> Alcotest.failf "%s accepted" name
        | Error _ -> ())
  in
  reject "truncated header" (Bytes.make 10 '\000');
  reject "bad magic" (Bytes.make 24 '\000');
  let wrong_linktype = Netobs.Pcap.file_header () in
  Bytes.set_int32_le wrong_linktype 20 1l;
  reject "wrong linktype" wrong_linktype;
  let truncated_record =
    Bytes.cat
      (Netobs.Pcap.file_header ())
      (Netobs.Pcap.record_header ~time:0.0 ~len:100)
  in
  reject "truncated record" truncated_record

(* A record header claiming 4 GiB in a 60-byte file: the reader refuses it
   before sizing a buffer by it. *)
let test_pcap_reader_bounds_record_length () =
  let record = Netobs.Pcap.record_header ~time:0.0 ~len:0 in
  Bytes.set_int32_le record 8 0xFFFFFFF0l;
  let file =
    Bytes.concat Bytes.empty
      [ Netobs.Pcap.file_header (); record; Bytes.make 20 '\000' ]
  in
  Alcotest.(check int) "a 60-byte file" 60 (Bytes.length file);
  let path = Filename.temp_file "m4x4huge" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc file);
      let top () = (Gc.quick_stat ()).Gc.top_heap_words in
      let before = top () in
      let result = Netobs.Pcap.read_file path in
      let grown_bytes = (top () - before) * (Sys.word_size / 8) in
      Alcotest.(check bool) "rejected" true (Result.is_error result);
      if grown_bytes >= 1 lsl 20 then
        Alcotest.failf "the major heap grew by %d bytes (bound 1 MiB)"
          grown_bytes)

(* ---------- histogram percentiles ---------- *)

let view_of reg name =
  match
    List.find_opt
      (fun s -> s.Netobs.Metrics.name = name)
      (Netobs.Metrics.snapshot reg)
  with
  | Some { Netobs.Metrics.value = Netobs.Metrics.Histogram h; _ } -> h
  | _ -> Alcotest.failf "histogram %s not in snapshot" name

let test_percentiles () =
  let reg = Netobs.Metrics.create () in
  let h =
    Netobs.Metrics.histogram reg ~buckets:[| 10.0; 20.0; 30.0; 40.0 |] "lat"
  in
  (* 40 observations spread evenly, 10 per bucket *)
  for i = 0 to 39 do
    Netobs.Metrics.observe h (float_of_int i +. 0.5)
  done;
  let v = view_of reg "lat" in
  let p q = Netobs.Metrics.percentile v q in
  Alcotest.(check (float 1.0)) "p50 lands mid-range" 20.0 (p 50.0);
  Alcotest.(check (float 1.0)) "p90 in the last bucket" 36.0 (p 90.0);
  Alcotest.(check bool) "p99 below the maximum" true (p 99.0 <= 39.5);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 0.5 (p 0.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 39.5 (p 100.0);
  Alcotest.(check bool) "monotone in p" true (p 50.0 <= p 90.0 && p 90.0 <= p 99.0)

let test_percentile_single_value () =
  let reg = Netobs.Metrics.create () in
  let h = Netobs.Metrics.histogram reg ~buckets:[| 1.0; 100.0 |] "one" in
  Netobs.Metrics.observe h 42.0;
  let v = view_of reg "one" in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g collapses to the value" q)
        42.0
        (Netobs.Metrics.percentile v q))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_percentile_overflow_bucket () =
  let reg = Netobs.Metrics.create () in
  let h = Netobs.Metrics.histogram reg ~buckets:[| 1.0 |] "ovf" in
  List.iter (Netobs.Metrics.observe h) [ 0.5; 50.0; 100.0 ];
  let v = view_of reg "ovf" in
  Alcotest.(check bool)
    "p99 interpolates into the overflow bucket, clamped to max" true
    (let p = Netobs.Metrics.percentile v 99.0 in
     p > 1.0 && p <= 100.0)

(* ---------- profile counts ---------- *)

module E18 = Experiments.E18_sim_capacity

let world_counts (r : E18.run) =
  [
    ("delivered", r.E18.delivered);
    ("expected", r.E18.expected);
    ("engine-events", r.E18.events);
    ("route-lookups", r.E18.route_lookups);
    ("hook-calls", r.E18.hook_calls);
  ]

(* Counting never depends on consumers: the same workload with nothing
   attached, with the trace log on and an observer, and with only a
   flight-recorder ring counts the same work. *)
let test_counts_ignore_consumers () =
  let bare = E18.workload ~flows:8 ~install:E18.nothing () in
  let logged =
    E18.workload ~flows:8
      ~install:(fun net ->
        Net.set_tracing net true;
        let trace = Net.trace net in
        let o = Trace.add_observer trace ignore in
        fun () -> Trace.remove_observer trace o)
      ()
  in
  let ringed =
    E18.workload ~flows:8
      ~install:(fun net ->
        let r = Trace.make_ring ~capacity:64 () in
        Trace.attach_ring (Net.trace net) r;
        fun () -> Trace.detach_ring (Net.trace net) r)
      ()
  in
  let counts = Alcotest.(list (pair string int)) in
  Alcotest.check counts "log and observer" (world_counts bare)
    (world_counts logged);
  Alcotest.check counts "ring only" (world_counts bare) (world_counts ringed)

(* The exact work of the 8-flow workload.  A change that adds a route
   lookup, a hook call, an event or a trace event per hop moves these,
   and a frame that carries a wrong length moves the wire bytes. *)
let test_counts_at_8_flows () =
  let p = E18.profile ~flows:8 () in
  Alcotest.(check (pair int int))
    "delivered/expected" (320, 320)
    (p.Netobs.Profile.delivered, p.Netobs.Profile.expected);
  Alcotest.(check (list (pair string int)))
    "counts"
    [
      ("engine-events", 4171);
      ("route-lookups", 4160);
      ("hook-calls", 960);
      ("send", 640);
      ("transmit", 4160);
      ("forward", 3520);
      ("deliver", 320);
      ("drop", 0);
      ("encapsulate", 320);
      ("decapsulate", 320);
      ("icmp-error", 0);
      ("wire-bytes", 1758720);
    ]
    p.Netobs.Profile.counts

let suites =
  [
    ( "recorder",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring flow sampling" `Quick test_ring_sampling;
        QCheck_alcotest.to_alcotest prop_ring_wraparound;
        QCheck_alcotest.to_alcotest prop_sampling_deterministic;
        QCheck_alcotest.to_alcotest prop_emit_paths;
        Alcotest.test_case "tee identity" `Quick test_tee_identity;
        Alcotest.test_case "recorder as tee sink" `Quick test_recorder_as_sink;
        Alcotest.test_case "ring path matches record path" `Quick
          test_ring_path_matches_record_path;
        Alcotest.test_case "ring sees only its own trace" `Quick
          test_ring_is_per_trace;
        Alcotest.test_case "pcap golden bytes" `Quick test_pcap_golden_bytes;
        Alcotest.test_case "pcap round trip" `Quick test_pcap_roundtrip;
        Alcotest.test_case "pcap reader rejects junk" `Quick
          test_pcap_reader_rejects;
        Alcotest.test_case "pcap reader bounds record length" `Quick
          test_pcap_reader_bounds_record_length;
        Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
        Alcotest.test_case "percentile single value" `Quick
          test_percentile_single_value;
        Alcotest.test_case "percentile overflow bucket" `Quick
          test_percentile_overflow_bucket;
        Alcotest.test_case "profile counts ignore consumers" `Quick
          test_counts_ignore_consumers;
        Alcotest.test_case "profile counts at 8 flows" `Quick
          test_counts_at_8_flows;
      ] );
  ]
