(* End-to-end benchmark of the simulator: one named workload per process.

   e2e.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]

   A run makes the workload's inputs from the seed, runs one untimed
   warm-up pass at 1/10 size, then timed passes at full size for --seconds
   (at least four), each in a fresh world, and checks every pass's
   simulated outcome.  Every pass does the same work, whatever the seed;
   all must produce the same simulated outcome (sim_digest), or the run
   fails.

   --trace 0 prints the end-to-end metrics.  --trace 1 instead runs one
   full-size pass untraced, one with spans recorded (written to
   .perfbench/spans-WORKLOAD-SEED.tsv), a 1/100-size counts pass with the
   world's trace on, and micro timings, and prints the per-layer
   metrics.  --smoke runs one 1/100-size pass with every check,
   for tests.

   Output: one "name value unit" line per metric, a JSON line describing
   the run, and last a JSON line {"correct", "attempted", "failed",
   "metrics"}.  Exit code 0 when every check passed, 1 when one failed, 2
   on bad arguments. *)

type workload = {
  name : string;
  make : seed:int -> div:int -> counts:bool -> Pass.t;
  build : unit -> Scenarios.Topo.t;
  payloads : int array;  (** the UDP payload mix the micro timings use *)
  builds_per_op : float;  (** worlds the timed region builds per op *)
  setup_reps : int;  (** 1/1000-size passes before each timed pass *)
  run_spans : int list;
  inject_spans : int list;
}

let workloads =
  [
    {
      name = "tunnel-udp";
      make = (fun ~seed -> Tunnel_udp.run (Tunnel_udp.inputs ~seed));
      build = Tunnel_udp.build;
      payloads =
        Array.append
          (Array.make Tunnel_udp.flows Tunnel_udp.request_size)
          Tunnel_udp.reply_sizes;
      builds_per_op = 0.0;
      setup_reps = 3;
      run_spans = Tunnel_udp.run_spans;
      inject_spans = Tunnel_udp.inject_spans;
    };
    {
      name = "direct-tcp";
      make = (fun ~seed -> Direct_tcp.run (Direct_tcp.inputs ~seed));
      build = Direct_tcp.build;
      payloads = [| Direct_tcp.mss |];
      builds_per_op = 0.0;
      setup_reps = 3;
      run_spans = Direct_tcp.run_spans;
      inject_spans = Direct_tcp.inject_spans;
    };
    {
      name = "handover-churn";
      make = (fun ~seed -> Handover.run (Handover.inputs ~seed));
      build = Handover.build;
      payloads = [| Handover.probe_size |];
      builds_per_op = 0.0;
      setup_reps = 3;
      run_spans = Handover.run_spans;
      inject_spans = Handover.inject_spans;
    };
    {
      name = "soak-sweep";
      make = (fun ~seed -> Soak_sweep.run (Soak_sweep.inputs ~seed));
      build = Soak_sweep.build;
      payloads = [| 8 |];
      (* [generate_plan] and [replay] each build the run's world. *)
      builds_per_op = 2.0;
      setup_reps = 0;
      run_spans = Soak_sweep.run_spans;
      inject_spans = Soak_sweep.inject_spans;
    };
  ]

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N [--seconds S] [--trace 0|1] \
     [--smoke]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and smoke = ref false in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun w -> w.name = v) workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> usage ());
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
      { workload; seed; seconds = !seconds; trace = !trace; smoke = !smoke }
  | _ -> usage ()

(* ---- output ---- *)

(* Every digit as measured; a non-finite value (a failed run) prints as 0
   so the JSON stays valid. *)
let number f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-40s %s %s\n" name (number v) unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (number v) (json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let per x ops = if ops = 0 then 0.0 else x /. float_of_int ops

(* ---- metrics ---- *)

let mib = 1048576.0

(* Rates and percentiles are taken per pass and summarised over the
   fastest quarter of the passes (their median).  The host's speed drifts
   in spells of seconds, and interference only ever adds time, so the
   fast passes are the ones that measure the program. *)
let end_to_end ~setup passes =
  let rate p = float_of_int p.Pass.ops /. (p.Pass.wall_ns /. 1e9) in
  let fastest =
    List.filteri
      (fun i _ -> i < max 1 (List.length passes / 4))
      (List.sort (fun a b -> Float.compare (rate b) (rate a)) passes)
  in
  let median_pass f = Stat.median (Array.of_list (List.map f fastest)) in
  let top_heap =
    List.fold_left
      (fun m p -> max m p.Pass.top_heap_words)
      (Gc.quick_stat ()).Gc.top_heap_words passes
  in
  [
    ("ops_per_s", median_pass rate, "1/s");
    ("op_us_p50", median_pass (fun p -> p.Pass.op_us.(0)), "us");
    ("heap_peak_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. mib, "MB");
    (* The median of the fastest quarter of the set-ups, for the same
       reason. *)
    ("setup_s", Stat.percentile 12.5 setup /. 1e9, "s");
  ]

(* Counts shared by the smoke check and the traced run. *)
let exact_counts (p : Pass.t) =
  [
    ("engine.events_per_op", per (float_of_int p.Pass.events) p.Pass.ops, "count");
    ("gc.minor_words_per_op", per p.Pass.minor_words p.Pass.ops, "words");
  ]

(* What the spans pass leaves behind.  It runs in a child, like the
   untraced pass it is compared with, so the span summary is computed
   there. *)
type spanned = {
  pass : Pass.t;
  run_self_ns : float;  (** self time of the calls that run the simulation *)
  inject_ns : float array;  (** duration of every input-handing call *)
  app_self_ns : float;  (** self time of the benchmark's callbacks *)
  live_mb : float;  (** live heap after the pass, compacted *)
  spans : int;
}

let spans_pass w make path =
  Span.on := true;
  let pass = make ~div:1 ~counts:false in
  Span.on := false;
  let self ids = float_of_int (List.fold_left (fun n id -> n + Span.self_ns id) 0 ids) in
  let app =
    List.filter
      (fun id -> String.starts_with ~prefix:"app." !Span.names.(id))
      (List.init (Array.length !Span.names) Fun.id)
  in
  let summary =
    {
      pass;
      run_self_ns = self w.run_spans;
      inject_ns = Array.concat (List.map Span.durations w.inject_spans);
      app_self_ns = self app;
      live_mb = 0.0;
      spans = Span.recorded ();
    }
  in
  Span.write path;
  Span.reset ();
  Gc.compact ();
  { summary with live_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. mib }

let per_layer w ~untraced:(u : Pass.t) ~(spanned : spanned) ~counted:(c : Pass.t)
    (m : Micro.t) =
  let ops = u.Pass.ops in
  let f = float_of_int in
  let s = spanned.pass in
  let run_self = per spanned.run_self_ns s.Pass.ops in
  let inject = spanned.inject_ns in
  let inject_per_op = per (Array.fold_left ( +. ) 0.0 inject) s.Pass.ops in
  let traced = c.Pass.traced in
  let per_c x = per (f x) c.Pass.ops in
  let per_u x = per (f x) ops in
  let events = per_u u.Pass.events and wraps = per_u u.Pass.wraps in
  let unwraps = per_u u.Pass.unwraps and hops = per_c traced.Pass.hops in
  let splits = per_c traced.Pass.splits and sends = per_c traced.Pass.sends in
  let registrations = per_u u.Pass.mh_registration_attempts in
  (* The layer budget: per-op call counts times the micro cost of one
     call.  A registration is a request and a reply, each encoded and
     decoded; every originated or encapsulated packet gets a header
     checksum.  What the budget does not explain is the residual. *)
  let attributed =
    (events *. m.Micro.engine_dispatch_ns)
    +. (hops *. m.Micro.routing_lookup_ns)
    +. (wraps *. m.Micro.encap_wrap_ns)
    +. (unwraps *. m.Micro.encap_unwrap_ns)
    +. (splits *. m.Micro.fragment_split_ns)
    +. ((sends +. wraps) *. m.Micro.checksum_header_ns)
    +. (2.0 *. registrations *. m.Micro.registration_roundtrip_ns)
    +. (w.builds_per_op *. m.Micro.topo_build_ms *. 1e6)
  in
  let tcp_mib = f u.Pass.payload_bytes /. mib in
  let per_mib x = if u.Pass.tcp_segments = 0 then 0.0 else f x /. tcp_mib in
  exact_counts u
  @ [
      ("engine.max_pending", f u.Pass.max_pending, "count");
      ("engine.dispatch_ns", m.Micro.engine_dispatch_ns, "ns");
      ("process.cpu_ns_per_op", per (u.Pass.cpu_s *. 1e9) ops, "ns");
      ("gc.major_words_per_op", per u.Pass.major_words ops, "words");
      ("gc.major_collections", f u.Pass.major_collections, "count");
      ("gc.live_mb_after_run", spanned.live_mb, "MB");
      ("net.run_self_ns_per_op", run_self, "ns");
      ("net.hops_per_op", hops, "count");
      ("net.wire_bytes_per_op", per_c traced.Pass.wire_bytes, "B");
      ("net.drops_per_op", per_c traced.Pass.drops, "count");
      ("net.sends_per_op", sends, "count");
      ("routing.lookup_ns", m.Micro.routing_lookup_ns, "ns");
      ("encap.wraps_per_op", wraps, "count");
      ("encap.unwraps_per_op", unwraps, "count");
      ("encap.wrap_ns", m.Micro.encap_wrap_ns, "ns");
      ("encap.unwrap_ns", m.Micro.encap_unwrap_ns, "ns");
      ("fragment.splits_per_op", splits, "count");
      ("fragment.split_ns", m.Micro.fragment_split_ns, "ns");
      ("ipv4.encode_ns", m.Micro.ipv4_encode_ns, "ns");
      ("ipv4.decode_ns", m.Micro.ipv4_decode_ns, "ns");
      ("checksum.header_ns", m.Micro.checksum_header_ns, "ns");
      ("home_agent.tunneled_per_op", per_u u.Pass.ha_tunneled, "count");
      ("home_agent.registrations_per_op", per_u u.Pass.ha_registrations, "count");
      ("mobile_host.registration_attempts_per_op", registrations, "count");
      ("op.us_p90", u.Pass.op_us.(1), "us");
      ("op.us_p99", u.Pass.op_us.(2), "us");
      ("inject.ns_p50", Stat.percentile 50.0 inject, "ns");
      ("inject.ns_p99", Stat.percentile 99.0 inject, "ns");
      ("inject.ns_per_op", inject_per_op, "ns");
      ("app.self_ns_per_op", per spanned.app_self_ns s.Pass.ops, "ns");
      ("tcp.segments_per_mib", per_mib u.Pass.tcp_segments, "count");
      ("tcp.retransmissions_per_mib", per_mib u.Pass.tcp_retransmissions, "count");
      ("topo.build_ms", m.Micro.topo_build_ms, "ms");
      ("topo.roam_ms", m.Micro.topo_roam_ms, "ms");
      ("topo.come_home_ms", m.Micro.topo_come_home_ms, "ms");
      ("registration.roundtrip_ns", m.Micro.registration_roundtrip_ns, "ns");
      ("oracle.checks_per_op", per_u u.Pass.oracle_checks, "count");
      ("fault.effects_per_op", per_u u.Pass.fault_events, "count");
      ("budget.measured_ns_per_op", run_self +. inject_per_op, "ns");
      ("budget.attributed_ns_per_op", attributed, "ns");
      ("budget.residual_ns_per_op", run_self +. inject_per_op -. attributed, "ns");
      ("bench.trace_overhead_frac", (s.Pass.wall_ns /. u.Pass.wall_ns) -. 1.0, "ratio");
    ]

(* ---- main ---- *)

let min_passes = 4

let refuse fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* Run [f] in a forked child and return its result.  Timed passes and the
   spans pass run this way: worlds stay reachable after a pass (the
   transport layers keep a process-wide registry of nodes), so in one
   process every pass would start from a bigger heap than the one before.
   A child starts from the parent's state after the warm-up, and its heap
   goes away with it. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try Marshal.from_channel ic with End_of_file -> Error "child died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Ok p -> p | Error e -> failwith ("pass failed: " ^ e))

(* Each child runs [w.setup_reps] 1/1000-size passes before its full-size
   pass.  They spread set-up samples over the whole run (a spell of host
   noise cannot cover them all), and take the child's copy-on-write page
   faults before the timed pass starts. *)
let probes w make = List.init w.setup_reps (fun _ -> make ~div:1000 ~counts:false)

(* [p] with the probes' set-up samples and checks folded in. *)
let with_probes probes (p : Pass.t) =
  let sum f = List.fold_left (fun n q -> n + f q) (f p) probes in
  {
    p with
    Pass.setup_ns = Array.concat (List.map (fun q -> q.Pass.setup_ns) (p :: probes));
    attempted = sum (fun q -> q.Pass.attempted);
    failed = sum (fun q -> q.Pass.failed);
  }

let () =
  let a = parse Sys.argv in
  let w = a.workload in
  (* Sharded worlds change what a pass costs; timed runs measure the
     unsharded engine only.  Smoke runs only check outcomes. *)
  (match Sys.getenv_opt "NETSIM_SHARDS" with
  | Some v when v <> "1" && not a.smoke ->
      refuse "NETSIM_SHARDS=%s: timed runs need the unsharded engine (unset it)" v
  | _ -> ());
  let make = w.make ~seed:a.seed in
  (* Every pass run is checked; [checked] collects them. *)
  let checked = ref [] in
  let check p =
    checked := p :: !checked;
    p
  in
  let child_pass () =
    check
      (in_child (fun () ->
           let probes = probes w make in
           with_probes probes (make ~div:1 ~counts:false)))
  in
  let timed, metrics =
    if a.smoke then begin
      let p = check (make ~div:100 ~counts:false) in
      ([ p ], end_to_end ~setup:p.Pass.setup_ns [ p ] @ exact_counts p)
    end
    else begin
      let warm = check (make ~div:10 ~counts:false) in
      if not a.trace then begin
        let deadline = Clock.now_ns () + int_of_float (a.seconds *. 1e9) in
        let rec timed_passes acc =
          if List.length acc >= min_passes && Clock.now_ns () >= deadline then List.rev acc
          else timed_passes (child_pass () :: acc)
        in
        let passes = timed_passes [] in
        let setup = Array.concat (List.map (fun p -> p.Pass.setup_ns) (warm :: passes)) in
        (passes, end_to_end ~setup passes)
      end
      else begin
        let untraced = child_pass () in
        if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
        let path = Printf.sprintf ".perfbench/spans-%s-%d.tsv" w.name a.seed in
        let spanned =
          in_child (fun () ->
              let probes = probes w make in
              let s = spans_pass w make path in
              { s with pass = with_probes probes s.pass })
        in
        ignore (check spanned.pass);
        Printf.printf "spans %s (%d spans)\n" path spanned.spans;
        let counted = check (make ~div:100 ~counts:true) in
        let micro = Micro.run ~build:w.build ~payloads:w.payloads in
        ([ untraced; spanned.pass ], per_layer w ~untraced ~spanned ~counted micro)
      end
    end
  in
  let digests = List.sort_uniq compare (List.map (fun p -> p.Pass.digest) timed) in
  let same_outcome = List.length digests = 1 in
  if not same_outcome then
    prerr_endline "e2e: passes disagree on the simulated outcome (sim_digest)";
  let attempted = List.fold_left (fun n p -> n + p.Pass.attempted) 0 !checked in
  let failed = List.fold_left (fun n p -> n + p.Pass.failed) 0 !checked in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "e2e: a metric is not a finite number";
  let correct = same_outcome && failed = 0 && finite in
  Printf.printf "sim_digest %016x\n" (List.hd digests);
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"passes\": %d, \"ops_per_pass\": %d, \
     \"trace\": %b, \"smoke\": %b, \"ocaml\": %s, \"domains\": %d, \
     \"sim_digest\": \"%016x\"}\n"
    (json_string w.name) a.seed (List.length timed) (List.hd timed).Pass.ops
    a.trace a.smoke (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    (List.hd digests);
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
