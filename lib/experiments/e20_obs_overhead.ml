(* E20 — the observability overhead ladder: what each telemetry consumer
   costs on the E18 capacity workload (128 concurrent UDP ping-pong flows
   over the roamed world, per-packet tracing gated off).  Rungs:

     off       nothing installed — the E18 baseline
     recorder  flight recorder: a ring on the world's trace
     jsonl     full JSONL export streaming to a file
     pcap      pcap export streaming to a file

   The recorder rides [Trace.emit]'s ring stores (no event construction
   at all); jsonl and pcap are observers on the world they measure, so
   they pay record/event allocation plus their own serialisation.  The
   ladder separates the price of *knowing* (recorder) from the price of
   *exporting* (jsonl, pcap).

   Each rung is measured two ways.  Exactly: the minor-heap words the
   workload's [Net.run] allocates per delivered packet and, for the two
   exports, the bytes written per delivered packet — the same on every
   host and every run, so the [recorder] test suite pins them at 8
   flows.  In host time: the CPU time the rung adds per delivered packet
   over tracing-off.  That cost belongs to the consumer; its share of
   tracing-off's own time per packet also depends on the host and on
   the engine, and grows as the simulator gets faster.

   Rates on a loaded host wobble; the time is host *CPU* seconds of the
   workload's [Net.run], which [E18_sim_capacity.workload] reads with
   [Sys.time] around it (immune to CPU steal), attempts are interleaved
   across rungs (a slow patch on a shared host degrades one attempt of
   every rung rather than one rung's whole budget), each run starts from
   a freshly collected heap, and each rung reports its median attempt. *)

open Netsim

let flows = 128
let attempts = 5
let recorder_capacity = 4096

let packets_per_sec (r : E18_sim_capacity.run) =
  if r.cpu_s > 0.0 then float_of_int r.delivered /. r.cpu_s else 0.0

let per_packet (r : E18_sim_capacity.run) x =
  if r.delivered > 0 then x /. float_of_int r.delivered else 0.0

let ns_per_packet (r : E18_sim_capacity.run) = per_packet r (r.cpu_s *. 1e9)

(* A rung attaches its consumer to the world it measures and returns the
   teardown; a rung that writes a file sets [written] to its size. *)
let rung_recorder (_ : int ref) net =
  let r = Trace.make_ring ~capacity:recorder_capacity in
  let trace = Net.trace net in
  Trace.attach_ring trace r;
  fun () -> Trace.detach_ring trace r

let rung_to_file make_observer written net =
  let path = Filename.temp_file "e20" ".out" in
  let oc = open_out_bin path in
  let trace = Net.trace net in
  let observer = Trace.add_observer trace (make_observer oc) in
  fun () ->
    Trace.remove_observer trace observer;
    written := pos_out oc;
    close_out oc;
    Sys.remove path

let rung_jsonl = rung_to_file Netobs.Export.sink_to_channel

let rung_pcap =
  rung_to_file (fun oc ->
      Netobs.Pcap.write_header oc;
      Netobs.Pcap.sink_to_channel oc)

let ladder =
  [
    ("off", fun _ -> E18_sim_capacity.nothing);
    ("recorder", rung_recorder);
    ("jsonl", rung_jsonl);
    ("pcap", rung_pcap);
  ]

type exact = {
  rung : string;
  words_per_packet : float;
  bytes_per_packet : float;
}

(* One run of a rung: the workload's counts and time, and its exact row. *)
let measure ~flows (name, rung) =
  let written = ref 0 in
  let r = E18_sim_capacity.workload ~flows ~install:(rung written) () in
  ( r,
    {
      rung = name;
      words_per_packet = per_packet r r.minor_words;
      bytes_per_packet = per_packet r (float_of_int !written);
    } )

let exact ~flows = List.map (fun rung -> snd (measure ~flows rung)) ladder

type row = {
  stats : E18_sim_capacity.run;
  exact : exact;
  added_ns : float;  (* CPU ns per delivered packet over tracing-off *)
  vs_off : float;  (* packets/sec against tracing-off, percent *)
}

(* The workload's end-to-end RTT distribution is pure simulated time —
   identical on every rung, whatever telemetry is installed — so it is
   collected once, on an unmeasured instrumented run, and summarised with
   the bucket-interpolated percentiles. *)
let rtt_percentiles () =
  let reg = Netobs.Metrics.create () in
  let h =
    Netobs.Metrics.histogram reg
      ~help:"end-to-end request/reply round trip, simulated ms" "e20.rtt_ms"
  in
  ignore
    (E18_sim_capacity.workload ~flows ~record_rtt:(Netobs.Metrics.observe h)
       ~install:E18_sim_capacity.nothing ());
  List.find_map
    (fun s ->
      match s.Netobs.Metrics.value with
      | Netobs.Metrics.Histogram v when s.Netobs.Metrics.name = "e20.rtt_ms"
        ->
          Some
            ( Netobs.Metrics.percentile v 50.0,
              Netobs.Metrics.percentile v 90.0,
              Netobs.Metrics.percentile v 99.0 )
      | _ -> None)
    (Netobs.Metrics.snapshot reg)

let run_ladder () =
  (* Interleaved attempts: pass k runs every rung once, back-to-back, so
     each pass samples every rung under the same host conditions; each
     run starts from a compacted heap so an allocation-heavy rung
     (jsonl) cannot reshape the heap under its successors.  The overhead
     statistic is the *median of within-pass ratios* (each rung against
     that same pass's "off"): a ratio taken seconds apart is immune to
     the minute-scale load drift of a shared host that makes absolute
     rates from different passes incomparable, and the median discards
     the odd pass that caught a load burst mid-ladder.  A rung's added
     ns per packet is the median of within-pass differences, likewise.
     The exact columns come from the last pass, after the first has paid
     any one-time set-up. *)
  let passes =
    Array.init attempts (fun _ ->
        Array.of_list
          (List.map
             (fun rung ->
               Gc.compact ();
               measure ~flows rung)
             ladder))
  in
  let middle cmp l = List.nth (List.sort cmp l) (List.length l / 2) in
  let stats i =
    middle
      (fun a b -> compare (packets_per_sec a) (packets_per_sec b))
      (Array.to_list (Array.map (fun pass -> fst pass.(i)) passes))
  in
  let within_pass f i =
    middle compare
      (Array.to_list (Array.map (fun p -> f (fst p.(0)) (fst p.(i))) passes))
  in
  let rel off r =
    let off = packets_per_sec off in
    if off > 0.0 then 100.0 *. ((packets_per_sec r /. off) -. 1.0) else 0.0
  in
  let added off r = ns_per_packet r -. ns_per_packet off in
  List.mapi
    (fun i _ ->
      {
        stats = stats i;
        exact = snd passes.(attempts - 1).(i);
        added_ns = within_pass added i;
        vs_off = within_pass rel i;
      })
    ladder

let run () =
  let rungs = run_ladder () in
  let rtt_note =
    match rtt_percentiles () with
    | Some (p50, p90, p99) ->
        Printf.sprintf
          "workload RTT (simulated, identical on every rung): p50=%.1f ms \
           p90=%.1f ms p99=%.1f ms — bucket-interpolated percentiles over \
           the run's %d exchanges"
          p50 p90 p99
          (flows * E18_sim_capacity.exchanges_per_flow)
    | None -> "workload RTT histogram was empty"
  in
  let row r =
    let off = r.exact.rung = "off" in
    [
      r.exact.rung;
      Printf.sprintf "%d/%d" r.stats.delivered r.stats.expected;
      Printf.sprintf "%.3f" r.exact.words_per_packet;
      (if r.exact.bytes_per_packet > 0.0 then
         Printf.sprintf "%.1f" r.exact.bytes_per_packet
       else "-");
      Printf.sprintf "%.1f" (r.stats.cpu_s *. 1e3);
      Printf.sprintf "%.0f" (packets_per_sec r.stats);
      Printf.sprintf "%.0f" (ns_per_packet r.stats);
      (if off then "-" else Printf.sprintf "%+.0f" r.added_ns);
      (if off then "-" else Printf.sprintf "%+.1f%%" r.vs_off);
    ]
  in
  {
    Table.id = "E20";
    title =
      Printf.sprintf
        "Observability overhead ladder: %d-flow capacity workload per rung"
        flows;
    paper_claim =
      "harness, not paper: each rung's cost is the host CPU time it adds \
       per delivered packet over tracing-off (+ns/packet), as measured on \
       the host that runs it; both that cost and its share of \
       tracing-off's packets/sec ('vs off') depend on the host and on the \
       engine";
    columns =
      [
        "rung";
        "delivered";
        "words/packet";
        "bytes/packet";
        "cpu ms";
        "packets/sec";
        "ns/packet";
        "+ns/packet";
        "vs off";
      ];
    rows = List.map row rungs;
    notes =
      [
        Printf.sprintf
          "same workload as E18's %d-flow level; the recorder is a %d-slot \
           ring on the allocation-free emit fast path; jsonl/pcap are \
           observers on the measured world, pay record construction plus \
           serialisation, and stream to a file that is then deleted"
          flows recorder_capacity;
        "words/packet: minor-heap words the workload's Net.run allocates \
         per delivered packet; bytes/packet: bytes written per delivered \
         packet; both exact (the same on any host), from the last pass";
        Printf.sprintf
          "cpu ms is host CPU time of the workload's Net.run; %d \
           interleaved passes, heap compacted before each run; \
           '+ns/packet' (the rung's cost) and 'vs off' are medians of \
           within-pass differences and ratios against off (back-to-back \
           runs, immune to host load drift); the cpu, rate and ns/packet \
           columns are the median run"
          attempts;
        rtt_note;
      ];
  }
