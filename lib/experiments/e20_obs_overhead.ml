(* E20 — the observability overhead ladder: what each telemetry consumer
   costs on the E18 capacity workload (128 concurrent UDP ping-pong flows
   over the roamed world, per-packet tracing gated off).  Rungs:

     off               nothing installed — the E18 baseline
     recorder          flight recorder, every flow
     recorder-sampled  flight recorder, 1-in-8 flow sampling
     jsonl             full JSONL export streaming to a file
     pcap              pcap export streaming to a file

   The recorder rungs take [Trace.emit]'s allocation-free ring path (no
   event construction at all); jsonl and pcap are observers on the world
   they measure, so they pay record/event allocation plus their own
   serialisation.  The ladder separates the price of *knowing*
   (recorder) from the price of *exporting* (jsonl, pcap).  Each rung's
   cost is the host CPU time it adds per delivered packet over
   tracing-off.  That cost belongs to the consumer; its share of
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
let sample_every = 8

let workload = E18_sim_capacity.workload ~flows

let packets_per_sec (r : E18_sim_capacity.run) =
  if r.cpu_s > 0.0 then float_of_int r.delivered /. r.cpu_s else 0.0

let ns_per_packet (r : E18_sim_capacity.run) =
  if r.delivered > 0 then r.cpu_s *. 1e9 /. float_of_int r.delivered else 0.0

let rung_recorder ?sample_every () net =
  let r = Trace.make_ring ?sample_every ~capacity:recorder_capacity () in
  let trace = Net.trace net in
  Trace.attach_ring trace r;
  fun () -> Trace.detach_ring trace r

let rung_to_file make_observer net =
  let path = Filename.temp_file "e20" ".out" in
  let oc = open_out_bin path in
  let trace = Net.trace net in
  let observer = Trace.add_observer trace (make_observer oc) in
  fun () ->
    Trace.remove_observer trace observer;
    close_out oc;
    Sys.remove path

let rung_jsonl net = rung_to_file Netobs.Export.sink_to_channel net

let rung_pcap net =
  rung_to_file
    (fun oc ->
      Netobs.Pcap.write_header oc;
      Netobs.Pcap.sink_to_channel oc)
    net

type rung = {
  name : string;
  stats : E18_sim_capacity.run;
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
    (workload ~record_rtt:(Netobs.Metrics.observe h)
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
  let ladder =
    [|
      ("off", E18_sim_capacity.nothing);
      ("recorder", fun net -> rung_recorder () net);
      ("recorder-sampled", fun net -> rung_recorder ~sample_every () net);
      ("jsonl", rung_jsonl);
      ("pcap", rung_pcap);
    |]
  in
  (* Interleaved attempts: pass k runs every rung once, back-to-back, so
     each pass samples every rung under the same host conditions; each
     run starts from a compacted heap so an allocation-heavy rung
     (jsonl) cannot reshape the heap under its successors.  The overhead
     statistic is the *median of within-pass ratios* (each rung against
     that same pass's "off"): a ratio taken seconds apart is immune to
     the minute-scale load drift of a shared host that makes absolute
     rates from different passes incomparable, and the median discards
     the odd pass that caught a load burst mid-ladder.  A rung's added
     ns per packet is the median of within-pass differences, likewise. *)
  let passes =
    Array.init attempts (fun _ ->
        Array.map
          (fun (_, install) ->
            Gc.compact ();
            workload ~install ())
          ladder)
  in
  let median l =
    let sorted = List.sort compare l in
    List.nth sorted (List.length sorted / 2)
  in
  let stats i =
    let by_pps =
      List.sort
        (fun a b -> compare (packets_per_sec a) (packets_per_sec b))
        (Array.to_list (Array.map (fun pass -> pass.(i)) passes))
    in
    List.nth by_pps (List.length by_pps / 2)
  in
  let within_pass f i =
    median (Array.to_list (Array.map (fun pass -> f pass.(0) pass.(i)) passes))
  in
  let rel off r =
    let off = packets_per_sec off in
    if off > 0.0 then 100.0 *. ((packets_per_sec r /. off) -. 1.0) else 0.0
  in
  let added off r = ns_per_packet r -. ns_per_packet off in
  Array.to_list
    (Array.mapi
       (fun i (name, _) ->
         {
           name;
           stats = stats i;
           added_ns = within_pass added i;
           vs_off = within_pass rel i;
         })
       ladder)

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
    [
      r.name;
      Printf.sprintf "%d/%d" r.stats.delivered r.stats.expected;
      Printf.sprintf "%.1f" (r.stats.cpu_s *. 1e3);
      Printf.sprintf "%.0f" (packets_per_sec r.stats);
      Printf.sprintf "%.0f" (ns_per_packet r.stats);
      (if r.name = "off" then "-" else Printf.sprintf "%+.0f" r.added_ns);
      (if r.name = "off" then "-" else Printf.sprintf "%+.1f%%" r.vs_off);
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
          "same workload as E18's %d-flow level; recorder rungs ride the \
           allocation-free emit fast path, jsonl/pcap are observers on the \
           measured world and pay record construction plus serialisation"
          flows;
        Printf.sprintf
          "recorder: %d-slot ring; recorder-sampled keeps 1 flow in %d \
           (deterministic per seed); jsonl/pcap stream to a file and the \
           file is deleted"
          recorder_capacity sample_every;
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
