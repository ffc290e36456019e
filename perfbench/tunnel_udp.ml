(* tunnel-udp: a roamed mobile host and a conventional correspondent
   ([Remote]) over In-IE/Out-IE, the paper's default cell.  Closed-loop
   UDP request/reply flows: each flow sends its next 64-byte request only
   when the previous reply arrives.  Every request is reverse-tunnelled
   through the home agent and every reply is intercepted there and
   tunnelled to the care-of address; the 1472-byte replies no longer fit
   the 1500-byte MTU once encapsulated and are fragmented. *)

open Netsim
module Topo = Scenarios.Topo
module Udp = Transport.Udp_service

let flows = 128
let exchanges = 250
let request_size = 64

let reply_sizes =
  Array.concat [ Array.make 64 64; Array.make 48 512; Array.make 16 1472 ]

let stagger = 0.003
let service_port = 9
let base_port = 47000
let build () = Topo.build ()

(* The seed only orders the fixed multisets of reply sizes and start
   offsets, so every seed does the same work. *)
type inputs = { sizes : int array; offsets : float array }

let inputs ~seed =
  let rng = Random.State.make [| seed; 0x7d9 |] in
  let sizes = Stat.shuffle rng reply_sizes in
  let offsets =
    Stat.shuffle rng (Array.init flows (fun i -> stagger *. float_of_int i))
  in
  { sizes; offsets }

let sp_build = Span.name "topo.build"
let sp_roam = Span.name "topo.roam"
let sp_run = Span.name "net.run"
let sp_send = Span.name "udp.send"
let sp_start = Span.name "app.flow_start"
let sp_serve = Span.name "app.ch_reply"
let sp_receive = Span.name "app.mh_receive"
let run_spans = [ sp_run ]
let inject_spans = [ sp_send ]

let run inputs ~div ~counts =
  let exchanges = max 1 (exchanges / div) in
  let t0 = Clock.now_ns () in
  Span.enter sp_build (-1);
  let topo = build () in
  Span.leave ();
  Span.enter sp_roam (-1);
  Topo.roam topo ();
  Span.leave ();
  let net = topo.Topo.net in
  Net.set_tracing net counts;
  let eng = Net.engine net in
  let mh_udp = Udp.get topo.Topo.mh_node in
  let ch_udp = Udp.get topo.Topo.ch_node in
  let home = topo.Topo.mh_home_addr and ch_addr = topo.Topo.ch_addr in
  let request = Bytes.make request_size 'q' in
  let replies = Array.map (fun n -> Bytes.make n 'r') inputs.sizes in
  let requests_seen = ref 0 and replies_seen = ref 0 and payload = ref 0 in
  let received = Array.make flows 0 in
  let bad = Array.make flows false in
  let batch = Pass.batcher 256 in
  let send_request i =
    Span.enter sp_send i;
    ignore
      (Udp.send mh_udp ~src:home ~dst:ch_addr ~src_port:(base_port + i)
         ~dst_port:service_port request);
    Span.leave ()
  in
  Udp.listen ch_udp ~port:service_port (fun svc d ->
      let i = d.Udp.src_port - base_port in
      Span.enter sp_serve i;
      incr requests_seen;
      payload := !payload + Bytes.length d.Udp.payload;
      Pass.tick batch;
      if Bytes.length d.Udp.payload <> request_size then bad.(i) <- true;
      Span.enter sp_send i;
      ignore
        (Udp.send svc ~src:ch_addr ~dst:d.Udp.src ~src_port:service_port
           ~dst_port:d.Udp.src_port replies.(i));
      Span.leave ();
      Span.leave ());
  for i = 0 to flows - 1 do
    Udp.listen mh_udp ~port:(base_port + i) (fun _ d ->
        Span.enter sp_receive i;
        let p = d.Udp.payload in
        let n = Bytes.length p in
        incr replies_seen;
        payload := !payload + n;
        Pass.tick batch;
        if n <> inputs.sizes.(i) || Bytes.get p 0 <> 'r' || Bytes.get p (n - 1) <> 'r'
        then bad.(i) <- true;
        received.(i) <- received.(i) + 1;
        if received.(i) < exchanges then send_request i;
        Span.leave ());
    Engine.after eng inputs.offsets.(i) (fun () ->
        Span.enter sp_start i;
        send_request i;
        Span.leave ())
  done;
  let setup_ns = float_of_int (Clock.now_ns () - t0) in
  let before = Pass.snapshot topo in
  let meter = Pass.start () in
  Pass.arm batch;
  Span.enter sp_run (-1);
  Net.run net;
  Span.leave ();
  let p = Pass.stop meter Pass.empty in
  let p = Pass.counters topo before p in
  let failed = ref 0 in
  Array.iteri
    (fun i n -> if n <> exchanges || bad.(i) then incr failed)
    received;
  let ops = !requests_seen + !replies_seen in
  {
    p with
    ops;
    attempted = flows;
    failed = !failed;
    setup_ns = [| setup_ns |];
    op_us = Pass.percentiles (Stat.contents batch.Pass.samples);
    payload_bytes = !payload;
    digest =
      Pass.digest
        [
          !requests_seen;
          !replies_seen;
          !payload;
          p.Pass.events;
          Pass.float_bits (Net.now net);
        ];
    traced = (if counts then Pass.read_trace net else Pass.no_trace);
  }
