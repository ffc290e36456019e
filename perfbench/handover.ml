(* handover-churn: the mobile host alternates between the visited network
   ([Topo.roam]: DHCP, registration with the home agent) and home
   ([Topo.come_home]: deregistration, gratuitous ARP).  Between moves a
   conventional correspondent sends a short burst of 64-byte UDP probes,
   10 ms apart, to the home address — tunnelled by the home agent while
   the host is away, direct while it is home.  The control plane dominates:
   the probes are few, so most of the work is DHCP, registration, the
   binding table, proxy ARP and re-addressing. *)

open Netsim
module Topo = Scenarios.Topo
module Udp = Transport.Udp_service

let handovers = 20_000
let dwell_probes = [| 1; 2; 3 |]
let probe_interval = 0.01
let probe_size = 64
let probe_port = 40007
let build () = Topo.build ()

(* Probes sent after each handover: an equal share of 1, 2 and 3, in an
   order the seed picks. *)
type inputs = { dwells : int array }

let inputs ~seed =
  let rng = Random.State.make [| seed; 0x4a7 |] in
  let n = Array.length dwell_probes in
  { dwells = Stat.shuffle rng (Array.init handovers (fun h -> dwell_probes.(h mod n))) }

let sp_build = Span.name "topo.build"
let sp_roam = Span.name "topo.roam"
let sp_home = Span.name "topo.come_home"
let sp_run = Span.name "net.run"
let sp_send = Span.name "udp.send"
let sp_probe = Span.name "app.probe"
let sp_receive = Span.name "app.mh_receive"
let run_spans = [ sp_roam; sp_home; sp_run ]
let inject_spans = [ sp_send ]

let run inputs ~div ~counts =
  (* An even count, so every pass ends with the host at home. *)
  let n = max 2 ((handovers / div) land lnot 1) in
  let t0 = Clock.now_ns () in
  Span.enter sp_build (-1);
  let topo = build () in
  Span.leave ();
  let net = topo.Topo.net in
  Net.set_tracing net counts;
  let eng = Net.engine net in
  let mh = topo.Topo.mh in
  let home = topo.Topo.mh_home_addr in
  let ch_udp = Udp.get topo.Topo.ch_node in
  let mh_udp = Udp.get topo.Topo.mh_node in
  let probe = Bytes.make probe_size 'p' in
  let sent = ref 0 and delivered = ref 0 in
  Udp.listen mh_udp ~port:probe_port (fun _ d ->
      Span.enter sp_receive (-1);
      if Bytes.length d.Udp.payload = probe_size then incr delivered;
      Span.leave ());
  let send_probe () =
    Span.enter sp_probe !sent;
    Span.enter sp_send !sent;
    ignore (Udp.send ch_udp ~dst:home ~src_port:probe_port ~dst_port:probe_port probe);
    Span.leave ();
    incr sent;
    Span.leave ()
  in
  let setup_ns = float_of_int (Clock.now_ns () - t0) in
  let samples = Stat.buf () in
  let failed = ref 0 in
  let before = Pass.snapshot topo in
  let meter = Pass.start () in
  for h = 0 to n - 1 do
    let failures = Mobileip.Mobile_host.registration_failures mh in
    let registered = ref true in
    let start = Clock.now_ns () in
    if h land 1 = 0 then begin
      Span.enter sp_roam h;
      Topo.roam topo ~on_registered:(fun ok -> registered := ok) ();
      Span.leave ()
    end
    else begin
      Span.enter sp_home h;
      Topo.come_home topo;
      Span.leave ()
    end;
    Stat.push samples (float_of_int (Clock.now_ns () - start) /. 1000.0);
    let placed =
      if h land 1 = 0 then
        Mobileip.Mobile_host.registered mh && not (Mobileip.Mobile_host.at_home mh)
      else Mobileip.Mobile_host.at_home mh
    in
    if not (!registered && placed
            && Mobileip.Mobile_host.registration_failures mh = failures)
    then incr failed;
    for j = 1 to inputs.dwells.(h) do
      Engine.after eng (probe_interval *. float_of_int j) send_probe
    done;
    Span.enter sp_run h;
    Net.run net;
    Span.leave ()
  done;
  let p = Pass.stop meter Pass.empty in
  let p = Pass.counters topo before p in
  {
    p with
    ops = n;
    attempted = n;
    failed = !failed;
    setup_ns = [| setup_ns |];
    op_us = Pass.percentiles (Stat.contents samples);
    payload_bytes = !delivered * probe_size;
    digest =
      Pass.digest
        [ n; !sent; !delivered; p.Pass.events; Pass.float_bits (Net.now net) ];
    traced = (if counts then Pass.read_trace net else Pass.no_trace);
  }
