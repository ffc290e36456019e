(* One pass of a workload: what it did, what it cost, and what the
   simulation produced.  Workloads fill the fields their layers reach and
   leave the rest at zero (a soak run's world is built inside
   [Soak.replay], so its engine and agent counters are out of reach). *)

type traced = {
  sends : int;  (** packets originated (Send events) *)
  hops : int;  (** link traversals, summed over flows *)
  wire_bytes : int;
  drops : int;
  splits : int;  (** datagrams fragmented (first fragments put on a link) *)
}

type t = {
  ops : int;  (** units of work completed: the workload's "op" *)
  attempted : int;  (** operations the checks judged *)
  failed : int;
  setup_ns : float array;  (** host time of each set-up in the pass *)
  wall_ns : float;  (** host time of the timed region *)
  cpu_s : float;  (** process CPU time of the timed region *)
  op_us : float array;
      (** host microseconds per op: the 50th, 90th and 99th percentiles of
          the pass's samples (kept as three numbers, not the samples, so a
          run's memory does not grow with its passes) *)
  digest : int;  (** hash of the simulated outcome *)
  payload_bytes : int;  (** application bytes delivered *)
  events : int;
  max_pending : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  top_heap_words : int;  (** the process's heap high-water mark *)
  wraps : int;  (** encapsulations, every agent *)
  unwraps : int;
  ha_tunneled : int;
  ha_registrations : int;
  mh_registration_attempts : int;
  tcp_segments : int;
  tcp_retransmissions : int;
  oracle_checks : int;
  fault_events : int;
  traced : traced;  (** counts pass only (zero otherwise): from the trace *)
}

let no_trace = { sends = 0; hops = 0; wire_bytes = 0; drops = 0; splits = 0 }

let empty =
  {
    ops = 0;
    attempted = 0;
    failed = 0;
    setup_ns = [||];
    wall_ns = 0.0;
    cpu_s = 0.0;
    op_us = [||];
    digest = 0;
    payload_bytes = 0;
    events = 0;
    max_pending = 0;
    minor_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
    top_heap_words = 0;
    wraps = 0;
    unwraps = 0;
    ha_tunneled = 0;
    ha_registrations = 0;
    mh_registration_attempts = 0;
    tcp_segments = 0;
    tcp_retransmissions = 0;
    oracle_checks = 0;
    fault_events = 0;
    traced = no_trace;
  }

(* FNV-1a over ints: the simulated-outcome digest. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int
let digest xs = List.fold_left mix 0x0bf29ce484222325 xs
let float_bits f = Int64.to_int (Int64.bits_of_float f)

let percentiles samples = Array.map (fun p -> Stat.percentile p samples) [| 50.0; 90.0; 99.0 |]

(* ---- the timed region ---- *)

type meter = { t0 : int; c0 : float; minor0 : float; gc0 : Gc.stat }

let start () =
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  { c0 = Clock.cpu_s (); minor0; gc0; t0 = Clock.now_ns () }

(* Fills the cost fields of [p] from the region opened by [start]. *)
let stop m p =
  let t1 = Clock.now_ns () in
  let c1 = Clock.cpu_s () in
  let minor1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  {
    p with
    wall_ns = float_of_int (t1 - m.t0);
    cpu_s = c1 -. m.c0;
    minor_words = minor1 -. m.minor0;
    major_words = gc1.Gc.major_words -. m.gc0.Gc.major_words;
    major_collections = gc1.Gc.major_collections - m.gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
  }

(* Engine and agent counters of a Topo world, as deltas over the timed
   region: [snapshot] before it, [counters] after. *)
type snapshot = int array

let snapshot (topo : Scenarios.Topo.t) : snapshot =
  let open Mobileip in
  let stats = Netsim.Net.stats topo.Scenarios.Topo.net in
  let mh = topo.Scenarios.Topo.mh and ha = topo.Scenarios.Topo.ha in
  let ch = topo.Scenarios.Topo.ch in
  [|
    stats.Netsim.Engine.executed;
    Mobile_host.packets_encapsulated mh
    + Home_agent.packets_tunneled ha
    + Correspondent.packets_encapsulated ch;
    Mobile_host.packets_decapsulated mh
    + Home_agent.packets_reverse_tunneled ha
    + Correspondent.packets_decapsulated ch;
    Home_agent.packets_tunneled ha;
    Home_agent.registrations_accepted ha;
    Mobile_host.registration_attempts mh;
  |]

let counters topo (before : snapshot) p =
  let after = snapshot topo in
  let d i = after.(i) - before.(i) in
  {
    p with
    events = d 0;
    max_pending = (Netsim.Net.stats topo.Scenarios.Topo.net).Netsim.Engine.max_pending;
    wraps = d 1;
    unwraps = d 2;
    ha_tunneled = d 3;
    ha_registrations = d 4;
    mh_registration_attempts = d 5;
  }

(* Per-op host time, sampled once per [every] ops: a clock read per batch
   rather than per packet keeps the sampling out of the cost it
   measures. *)
type batcher = {
  every : int;
  mutable n : int;
  mutable last : int;
  samples : Stat.buf;
}

let batcher every = { every; n = 0; last = 0; samples = Stat.buf () }
let arm b = b.last <- Clock.now_ns ()

let tick b =
  b.n <- b.n + 1;
  if b.n = b.every then begin
    let now = Clock.now_ns () in
    Stat.push b.samples
      (float_of_int (now - b.last) /. float_of_int b.every /. 1000.0);
    b.n <- 0;
    b.last <- now
  end

(* Counts from a world that ran with tracing on. *)
let read_trace net =
  let trace = Netsim.Net.trace net in
  let flows = Netsim.Trace.flows trace in
  let hops, wire_bytes =
    List.fold_left
      (fun (h, b) flow ->
        ( h + Netsim.Trace.transmissions trace ~flow,
          b + Netsim.Trace.wire_bytes trace ~flow ))
      (0, 0) flows
  in
  let drops =
    List.fold_left
      (fun n (_, k) -> n + k)
      0
      (Netobs.Trace_stats.drops_by_reason trace)
  in
  (* A first fragment is transmitted once per hop; count its frame once. *)
  let first_fragments = Hashtbl.create 64 in
  let sends =
    List.fold_left
      (fun s r ->
        match r.Netsim.Trace.event with
        | Netsim.Trace.Send _ -> s + 1
        | Netsim.Trace.Transmit { frame; _ } ->
            let pkt = frame.Netsim.Trace.pkt in
            if pkt.Netsim.Ipv4_packet.more_fragments
               && pkt.Netsim.Ipv4_packet.frag_offset = 0
            then Hashtbl.replace first_fragments frame.Netsim.Trace.id ();
            s
        | _ -> s)
      0
      (Netsim.Trace.records trace)
  in
  { sends; hops; wire_bytes; drops; splits = Hashtbl.length first_fragments }
