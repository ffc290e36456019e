(* direct-tcp: a mobile-aware correspondent on the visited segment, In-DH
   and Out-DH — no tunnel, no agent on the data path, one link-layer hop.
   Thirty concurrent TCP transfers from the mobile host (window 8, MSS
   536) carry a fixed mix of 64 KiB, 256 KiB and 1 MiB, written by the
   application 16 KiB at a time; the receiver checks every byte against
   the seeded pattern and both ends must close.

   The writes are bounded because [Tcp] copies the unsent remainder of a
   write for every segment it cuts: one 1 MiB write costs ~1 GB of copying
   and major-heap allocation, which would make this a memory-bandwidth
   benchmark — and on a shared host a very noisy one. *)

open Netsim
module Topo = Scenarios.Topo
module Tcp = Transport.Tcp

let transfer_sizes =
  Array.concat
    [ Array.make 10 65536; Array.make 10 262_144; Array.make 10 1_048_576 ]

let conns = Array.length transfer_sizes
let write_size = 16384
let window = 8
let mss = 536
let stagger = 0.005
let service_port = 8080
let base_port = 30000

let build () =
  Topo.build ~ch_position:Topo.On_visited_segment
    ~ch_capability:Mobileip.Correspondent.Mobile_aware ()

let cell = { Mobileip.Grid.incoming = Mobileip.Grid.In_DH; outgoing = Out_DH }

(* Byte [i] of transfer [k]; not periodic at 256, so a misplaced segment
   shows. *)
let pattern k i = Char.unsafe_chr ((i + (i lsr 8) + (k * 37)) land 0xff)

(* Transfer [k] of [size] bytes as the application's writes. *)
let writes k size =
  Array.init
    ((size + write_size - 1) / write_size)
    (fun c ->
      let off = c * write_size in
      Bytes.init (min write_size (size - off)) (fun i -> pattern k (off + i)))

(* The full-size writes are inputs, made once per process: the sender
   never modifies them, and filling 13 MiB is not the simulator's set-up
   cost. *)
type inputs = { sizes : int array; offsets : float array; data : Bytes.t array array }

let inputs ~seed =
  let rng = Random.State.make [| seed; 0x7c9 |] in
  let sizes = Stat.shuffle rng transfer_sizes in
  let offsets =
    Stat.shuffle rng (Array.init conns (fun i -> stagger *. float_of_int i))
  in
  { sizes; offsets; data = Array.mapi writes sizes }

let sp_build = Span.name "topo.build"
let sp_roam = Span.name "topo.roam"
let sp_run = Span.name "net.run"
let sp_send = Span.name "tcp.connect_send"
let sp_start = Span.name "app.transfer_start"
let sp_receive = Span.name "app.ch_receive"
let sp_state = Span.name "app.ch_state"
let run_spans = [ sp_run ]
let inject_spans = [ sp_send ]

let run inputs ~div ~counts =
  let sizes = Array.map (fun n -> max 1 (n / div)) inputs.sizes in
  let data = if div = 1 then inputs.data else Array.mapi writes sizes in
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
  let mh = topo.Topo.mh and ch = topo.Topo.ch and ch_addr = topo.Topo.ch_addr in
  let home, _ = Mobileip.Conversation.configure ~mh ~ch ~ch_addr ~cell in
  let mh_tcp = Tcp.get topo.Topo.mh_node and ch_tcp = Tcp.get topo.Topo.ch_node in
  let received = Array.make conns 0 in
  let bad = Array.make conns false in
  let servers = Array.make conns None and clients = Array.make conns None in
  let segments = ref 0 in
  let batch = Pass.batcher 64 in
  Tcp.listen ch_tcp ~window ~port:service_port (fun conn ->
      let k = snd (Tcp.remote_endpoint conn) - base_port in
      servers.(k) <- Some conn;
      Tcp.on_receive conn (fun chunk ->
          Span.enter sp_receive k;
          incr segments;
          Pass.tick batch;
          let off = received.(k) in
          let n = Bytes.length chunk in
          if off + n > sizes.(k) then bad.(k) <- true
          else
            for j = 0 to n - 1 do
              if Bytes.unsafe_get chunk j <> pattern k (off + j) then
                bad.(k) <- true
            done;
          received.(k) <- off + n;
          Span.leave ());
      Tcp.on_state_change conn (fun st ->
          Span.enter sp_state k;
          if st = Tcp.Close_wait then Tcp.close conn;
          Span.leave ()));
  for k = 0 to conns - 1 do
    Engine.after eng inputs.offsets.(k) (fun () ->
        Span.enter sp_start k;
        Span.enter sp_send k;
        let conn =
          Tcp.connect mh_tcp ~src:home ~src_port:(base_port + k) ~mss ~window
            ~dst:ch_addr ~dst_port:service_port ()
        in
        Array.iter (Tcp.send_data conn) data.(k);
        Tcp.close conn;
        Span.leave ();
        clients.(k) <- Some conn;
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
  let closed = function Some c -> Tcp.state c = Tcp.Closed | None -> false in
  let retx =
    Array.fold_left
      (fun n c -> match c with Some c -> n + Tcp.retransmissions c | None -> n)
      0 clients
  in
  let failed = ref 0 in
  for k = 0 to conns - 1 do
    if bad.(k) || received.(k) <> sizes.(k) || not (closed servers.(k) && closed clients.(k))
    then incr failed
  done;
  let payload = Array.fold_left ( + ) 0 received in
  {
    p with
    ops = !segments;
    attempted = conns;
    failed = !failed;
    setup_ns = [| setup_ns |];
    op_us = Pass.percentiles (Stat.contents batch.Pass.samples);
    payload_bytes = payload;
    tcp_segments = !segments;
    tcp_retransmissions = retx;
    digest =
      Pass.digest
        [ !segments; payload; retx; p.Pass.events; Pass.float_bits (Net.now net) ];
    traced = (if counts then Pass.read_trace net else Pass.no_trace);
  }
