(* The chaos soak harness: the invariant oracle (one violating run per
   invariant), the seeded plan generator, fault-plan JSON round-trips,
   the delta-debugging shrinker, soak reproducibility, and the TCP
   gave-up counter. *)

open Netsim

let a = Ipv4_addr.of_string
let p = Ipv4_addr.Prefix.of_string

let names oracle =
  List.map
    (fun v -> v.Invariant.name)
    (Scenarios.Oracle.violations oracle)

let cell_ie =
  { Mobileip.Grid.incoming = Mobileip.Grid.In_IE;
    outgoing = Mobileip.Grid.Out_IE }

(* ---- one violating run per invariant ---- *)

(* An expired binding nobody purges: the lazy table keeps it, the
   invariant calls it out once the grace passes. *)
let test_binding_lifetime_violation () =
  let topo = Scenarios.Topo.build ~mh_lifetime:5 () in
  Scenarios.Topo.roam_static topo ();
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_binding_lifetime ~grace:1.0 oracle;
  Scenarios.Oracle.start ~interval:1.0 ~ticks:12 oracle;
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check bool)
    "binding-lifetime violated" true
    (List.mem "binding-lifetime" (names oracle))

(* With the purge running the same world stays clean. *)
let test_binding_lifetime_clean_with_purge () =
  let topo = Scenarios.Topo.build ~mh_lifetime:5 () in
  Scenarios.Topo.roam_static topo ();
  Mobileip.Home_agent.enable_purge topo.Scenarios.Topo.ha ~interval:2.0 ();
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_binding_lifetime ~grace:3.0 oracle;
  Scenarios.Oracle.start ~interval:1.0 ~ticks:12 oracle;
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check (list string)) "clean" [] (names oracle)

(* The correspondent learned the care-of address through a channel the
   mobile host does not track (here: a pre-seeded cache entry), so the
   withdrawal after a failed registration never reaches it — exactly the
   stale-cache hazard the invariant exists for. *)
let test_withdrawal_violation () =
  let topo =
    Scenarios.Topo.build ~ch_capability:Mobileip.Correspondent.Mobile_aware
      ~mh_retry_base:0.2 ~mh_retry_cap:0.4 ~mh_retry_limit:2 ()
  in
  Scenarios.Topo.roam_static topo ();
  let mh = topo.Scenarios.Topo.mh in
  Alcotest.(check bool)
    "registered after roam" true
    (Mobileip.Mobile_host.registered mh);
  Mobileip.Correspondent.learn_binding topo.Scenarios.Topo.ch
    ~home:topo.Scenarios.Topo.mh_home_addr
    ~care_of:(Option.get (Mobileip.Mobile_host.care_of_address mh))
    ~lifetime:300;
  Mobileip.Home_agent.crash topo.Scenarios.Topo.ha;
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_withdrawal ~grace:1.0 oracle;
  Scenarios.Oracle.start ~interval:0.5 ~ticks:30 oracle;
  Mobileip.Mobile_host.reregister mh ();
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check bool)
    "registration gave up" true
    (Mobileip.Mobile_host.registration_failures mh > 0);
  Alcotest.(check bool)
    "withdrawal violated" true
    (List.mem "withdrawal" (names oracle))

(* A sender that does not follow the reference pattern shows up as a
   stream violation at the monitored receiver. *)
let test_tcp_stream_violation () =
  let topo = Scenarios.Topo.build () in
  let oracle = Scenarios.Oracle.create topo in
  let pat i = Char.chr (Char.code 'a' + (i mod 26)) in
  let ch_tcp = Transport.Tcp.get topo.Scenarios.Topo.ch_node in
  Transport.Tcp.listen ch_tcp ~port:9009 (fun conn ->
      Scenarios.Oracle.add_tcp_stream ~expected:pat oracle conn);
  let mh_tcp = Transport.Tcp.get topo.Scenarios.Topo.mh_node in
  let conn =
    Transport.Tcp.connect mh_tcp ~dst:topo.Scenarios.Topo.ch_addr
      ~dst_port:9009 ()
  in
  Transport.Tcp.send_data conn (Bytes.of_string "abzz");
  Scenarios.Topo.run topo;
  Scenarios.Oracle.check_now oracle;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check (list string))
    "tcp-stream violated" [ "tcp-stream" ] (names oracle)

(* Expired binding, no purge: the proxy-ARP entry stays parked on the
   home segment with no valid binding behind it. *)
let test_proxy_arp_violation () =
  let topo = Scenarios.Topo.build ~mh_lifetime:5 () in
  Scenarios.Topo.roam_static topo ();
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_proxy_arp ~grace:1.0 oracle;
  Scenarios.Oracle.start ~interval:1.0 ~ticks:12 oracle;
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check bool)
    "proxy-arp-purge violated" true
    (List.mem "proxy-arp-purge" (names oracle))

(* Pinning a method the selector has recorded as failed is exactly what
   the discipline invariant forbids. *)
let test_selector_discipline_violation () =
  let topo = Scenarios.Topo.build () in
  Scenarios.Topo.roam_static topo ();
  let mh = topo.Scenarios.Topo.mh in
  let sel = Mobileip.Selector.create Mobileip.Selector.Conservative_first in
  Mobileip.Mobile_host.set_selector mh (Some sel);
  let dst = topo.Scenarios.Topo.ch_addr in
  for _ = 1 to 4 do
    Mobileip.Selector.report sel ~dst Mobileip.Selector.Original_received
  done;
  for _ = 1 to 2 do
    Mobileip.Selector.report sel ~dst
      Mobileip.Selector.Retransmission_detected
  done;
  Alcotest.(check bool)
    "Out-DE recorded failed" true
    (List.exists
       (Mobileip.Grid.equal_out Mobileip.Grid.Out_DE)
       (Mobileip.Selector.failed_methods sel ~dst));
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_selector_discipline oracle;
  Scenarios.Oracle.check_now oracle;
  Alcotest.(check (list string)) "clean before the pin" [] (names oracle);
  Mobileip.Mobile_host.pin_method mh ~dst (Some Mobileip.Grid.Out_DE);
  Scenarios.Oracle.check_now oracle;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check bool)
    "selector-discipline violated" true
    (List.mem "selector-discipline" (names oracle))

(* The home agent never comes back and the retry/renewal budgets run
   out: the host ends the run away and unregistered. *)
let test_eventual_recovery_violation () =
  let topo =
    Scenarios.Topo.build ~mh_lifetime:5 ~mh_retry_base:0.2 ~mh_retry_cap:0.4
      ~mh_retry_limit:2 ()
  in
  Scenarios.Topo.roam_static topo ();
  Mobileip.Mobile_host.enable_keepalive topo.Scenarios.Topo.mh ~margin:2.0
    ~max_renewals:2 ();
  Mobileip.Home_agent.crash topo.Scenarios.Topo.ha;
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.add_recovery ~after:0.0 oracle;
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check bool)
    "still unregistered" false
    (Mobileip.Mobile_host.registered topo.Scenarios.Topo.mh);
  Alcotest.(check bool)
    "eventual-recovery violated" true
    (List.mem "eventual-recovery" (names oracle))

(* A healthy world under the full standard set stays clean. *)
let test_healthy_world_clean () =
  let topo = Scenarios.Topo.build ~mh_lifetime:10 () in
  Scenarios.Topo.roam_static topo ();
  Mobileip.Mobile_host.enable_keepalive topo.Scenarios.Topo.mh ~margin:5.0
    ~max_renewals:4 ();
  Mobileip.Home_agent.enable_purge topo.Scenarios.Topo.ha ~interval:5.0 ();
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.install_standard ~recovery_after:0.0 oracle;
  Scenarios.Oracle.start ~interval:1.0 ~ticks:30 oracle;
  Scenarios.Topo.run topo;
  Scenarios.Oracle.finish oracle;
  Alcotest.(check (list string)) "no violations" [] (names oracle);
  Alcotest.(check bool)
    "checks actually ran" true
    (Invariant.checks_run (Scenarios.Oracle.inv oracle) > 50)

(* ---- the generator ---- *)

let qbudget =
  {
    Chaos.events = 6;
    horizon = 30.0;
    links = [ "l1"; "l2" ];
    cuts = [ ([ "a" ], [ "b" ]) ];
    actions = [ ("ha_outage", [ "2.0"; "3.0" ]); ("mh_move", [ "a"; "b" ]) ];
    max_window = 5.0;
    max_extra_latency = 0.5;
  }

let prop_generate_deterministic =
  QCheck.Test.make ~name:"Chaos.generate is a pure function of the seed"
    ~count:200
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      Chaos.generate ~seed qbudget = Chaos.generate ~seed qbudget)

let prop_generate_respects_budget =
  QCheck.Test.make ~name:"generated plans respect their budget" ~count:200
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      let plan = Chaos.generate ~seed qbudget in
      List.length plan.Fault.events = qbudget.Chaos.events
      && List.for_all
           (fun e ->
             Fault.event_start e >= 0.0
             && Fault.event_end e <= qbudget.Chaos.horizon
             &&
             match e with
             | Fault.Flap { link; down; up } ->
                 List.mem link qbudget.Chaos.links && down < up
             | Fault.Partition { a; b; _ } ->
                 List.mem (a, b) qbudget.Chaos.cuts
             | Fault.Latency_spike { link; extra; _ } ->
                 List.mem link qbudget.Chaos.links
                 && extra > 0.0
                 && extra <= 0.05 +. qbudget.Chaos.max_extra_latency
             | Fault.Duplicate { rate; _ } -> rate >= 0.05 && rate <= 0.45
             | Fault.Reorder { rate; max_extra; _ } ->
                 rate >= 0.05 && rate <= 0.45 && max_extra > 0.0
             | Fault.Action { kind; arg; _ } -> (
                 match List.assoc_opt kind qbudget.Chaos.actions with
                 | Some args -> List.mem arg args
                 | None -> false))
           plan.Fault.events)

let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"fault-plan JSON round-trips exactly" ~count:200
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      let plan = Chaos.generate ~seed qbudget in
      match Fault.plan_of_string (Fault.plan_to_string plan) with
      | Ok plan' -> plan = plan'
      | Error _ -> false)

let test_generate_empty_candidates () =
  (* No links, cuts or actions: only duplication/reordering can appear. *)
  let b = { Chaos.default_budget with Chaos.events = 10 } in
  let plan = Chaos.generate ~seed:7 b in
  Alcotest.(check bool)
    "only windowed frame effects" true
    (List.for_all
       (function
         | Fault.Duplicate _ | Fault.Reorder _ -> true
         | _ -> false)
       plan.Fault.events)

(* ---- the shrinker, pure ddmin behaviour ---- *)

let test_ddmin_single_trigger () =
  let mk k =
    Fault.Duplicate
      { from_ = float_of_int k; until = float_of_int k +. 1.0; rate = 0.1 }
  in
  let events = List.init 8 mk in
  let plan = { Fault.seed = 1; events } in
  let target = List.nth events 5 in
  let still_failing p = List.mem target p.Fault.events in
  let shrunk, replays = Chaos.shrink ~still_failing plan in
  Alcotest.(check int) "one event left" 1 (List.length shrunk.Fault.events);
  Alcotest.(check bool)
    "kept the trigger" true
    (List.mem target shrunk.Fault.events);
  Alcotest.(check bool) "replays counted" true (replays > 0);
  (* A two-event dependency shrinks to exactly those two. *)
  let t2 = List.nth events 2 in
  let still2 p = List.mem target p.Fault.events && List.mem t2 p.Fault.events in
  let shrunk2, _ = Chaos.shrink ~still_failing:still2 plan in
  Alcotest.(check int) "two events left" 2 (List.length shrunk2.Fault.events);
  Alcotest.(check bool)
    "kept both" true
    (List.mem target shrunk2.Fault.events && List.mem t2 shrunk2.Fault.events)

(* ---- shrinker + soak end to end ---- *)

let harsh = Experiments.Soak.harsh

let test_shrink_deterministic_and_minimal () =
  let plan =
    Experiments.Soak.generate_plan ~profile:harsh ~cell:cell_ie ~seed:0 ()
  in
  let outcome =
    Experiments.Soak.replay ~profile:harsh ~cell:cell_ie ~seed:0 plan
  in
  Alcotest.(check bool)
    "seed 0 violates under the harsh profile" true
    (outcome.Experiments.Soak.violations <> []);
  let s1, r1 =
    Experiments.Soak.shrink_plan ~profile:harsh ~cell:cell_ie ~seed:0 plan
      outcome
  in
  let s2, r2 =
    Experiments.Soak.shrink_plan ~profile:harsh ~cell:cell_ie ~seed:0 plan
      outcome
  in
  Alcotest.(check bool) "same minimal plan both times" true (s1 = s2);
  Alcotest.(check int) "same replay count" r1 r2;
  Alcotest.(check bool)
    "strictly smaller" true
    (List.length s1.Fault.events < List.length plan.Fault.events);
  let o' = Experiments.Soak.replay ~profile:harsh ~cell:cell_ie ~seed:0 s1 in
  Alcotest.(check bool)
    "minimal plan still violates the same invariants" true
    (List.for_all
       (fun n -> List.mem n (Experiments.Soak.violated_names o'))
       (Experiments.Soak.violated_names outcome))

let test_soak_reproducible () =
  let sweep () =
    Experiments.Soak.run ~profile:harsh ~seed_lo:0 ~seed_hi:0
      ~cells:[ cell_ie ] ()
  in
  let r1 = sweep () in
  let r2 = sweep () in
  Alcotest.(check int)
    "one finding" 1
    (List.length r1.Experiments.Soak.findings);
  let f1 = List.hd r1.Experiments.Soak.findings in
  let f2 = List.hd r2.Experiments.Soak.findings in
  Alcotest.(check bool)
    "identical plan, shrink and repro JSON" true
    (f1.Experiments.Soak.f_plan = f2.Experiments.Soak.f_plan
    && f1.Experiments.Soak.f_shrunk = f2.Experiments.Soak.f_shrunk
    && Experiments.Soak.repro_to_string ~seed:0 ~cell:cell_ie
         f1.Experiments.Soak.f_shrunk
       = Experiments.Soak.repro_to_string ~seed:0 ~cell:cell_ie
           f2.Experiments.Soak.f_shrunk)

let test_repro_roundtrip_with_annotations () =
  let plan =
    Experiments.Soak.generate_plan ~profile:harsh ~cell:cell_ie ~seed:3 ()
  in
  let s = Experiments.Soak.repro_to_string ~seed:3 ~cell:cell_ie plan in
  (match Experiments.Soak.repro_of_string s with
  | Error e -> Alcotest.fail e
  | Ok (plan', seed, cell) ->
      Alcotest.(check bool) "plan survives" true (plan = plan');
      Alcotest.(check (option int)) "seed annotation" (Some 3) seed;
      Alcotest.(check bool)
        "cell annotation" true
        (cell = Some cell_ie));
  (* the annotated file is still a plain plan for Fault *)
  match Fault.plan_of_string s with
  | Ok plan' -> Alcotest.(check bool) "plain plan load" true (plan = plan')
  | Error e -> Alcotest.fail e

let test_gentle_ci_range_clean () =
  let r =
    Experiments.Soak.run ~seed_lo:0 ~seed_hi:1 ~cells:[ cell_ie ] ()
  in
  Alcotest.(check int) "no findings" 0 (List.length r.Experiments.Soak.findings);
  Alcotest.(check bool)
    "checks ran" true
    (r.Experiments.Soak.total_checks > 0);
  (* Seed 7 renews a binding late in the run: the background purge must
     still sweep it once it expires, however long the run goes on. *)
  let r7 = Experiments.Soak.run ~seed_lo:7 ~seed_hi:7 ~shrink:false () in
  Alcotest.(check (list string))
    "gentle seed 7 replays clean on every cell" []
    (List.map
       (fun f -> Mobileip.Grid.cell_to_string f.Experiments.Soak.f_cell)
       r7.Experiments.Soak.findings)

(* ---- plans without a world ---- *)

(* The reference: a budget named from a world built as a soak run builds
   it, its links and cuts read off the world's backbone. *)
let plan_from_built_world (profile : Experiments.Soak.profile) ~cell ~seed =
  let topo =
    Scenarios.Topo.build
      ~backbone_hops:(4 + (seed land 1))
      ~ch_position:
        (if cell.Mobileip.Grid.incoming = Mobileip.Grid.In_DH then
           Scenarios.Topo.On_visited_segment
         else Scenarios.Topo.Remote)
      ~ch_capability:Mobileip.Correspondent.Mobile_aware
      ~mh_lifetime:profile.mh_lifetime ~mh_retry_base:0.5 ~mh_retry_cap:2.0
      ~mh_retry_limit:profile.retry_limit
      ~with_standby_ha:profile.with_standby ~standby_detect_interval:0.5
      ~standby_detect_timeout:1.0 ()
  in
  let n = List.length topo.Scenarios.Topo.backbone in
  let names first count =
    List.init count (fun i -> Printf.sprintf "b%d" (first + i))
  in
  let mid = n / 2 in
  Chaos.generate ~seed
    {
      Chaos.events = profile.events;
      horizon = profile.horizon;
      links =
        [
          "home-lan";
          "visited-lan";
          "hr<->b0";
          Printf.sprintf "vr<->b%d" (n - 1);
        ]
        @ List.init (n - 1) (fun i -> Printf.sprintf "b%d<->b%d" i (i + 1));
      cuts =
        [
          ([ "hr" ], [ "b0" ]);
          ([ "vr" ], [ Printf.sprintf "b%d" (n - 1) ]);
          (names 0 mid, names mid (n - mid));
        ];
      actions =
        [
          ("ha_outage", List.map (Printf.sprintf "%.1f") profile.outages);
          ("mh_move", [ "a"; "b" ]);
        ];
      max_window = profile.max_window;
      max_extra_latency = 0.4;
    }

let test_plans_without_world () =
  List.iter
    (fun profile ->
      for seed = 0 to 99 do
        List.iter
          (fun cell ->
            if
              Experiments.Soak.generate_plan ~profile ~cell ~seed ()
              <> plan_from_built_world profile ~cell ~seed
            then
              Alcotest.failf "seed %d, cell %s: plan differs" seed
                (Mobileip.Grid.cell_to_string cell))
          Experiments.Soak.default_cells
      done)
    [ Experiments.Soak.gentle; harsh ]

(* Every chaos target names a link or node of the world it describes: a
   registration across the backbone crosses every link, and the fault
   hook reports each by the name {!Net} gives it. *)
let test_chaos_targets_name_the_world () =
  for n = 2 to 8 do
    let topo = Scenarios.Topo.build ~backbone_hops:n () in
    let net = topo.Scenarios.Topo.net in
    let seen = Hashtbl.create 16 in
    Net.set_fault_hook net
      (Some
         (fun ~link ~src:_ ~dst:_ ->
           Hashtbl.replace seen link ();
           Net.Fault_pass));
    Scenarios.Topo.roam topo ();
    List.iter
      (fun link ->
        if not (Hashtbl.mem seen link) then
          Alcotest.failf "backbone_hops %d: no link named %s" n link)
      (Scenarios.Topo.chaos_links ~backbone_hops:n);
    List.iter
      (fun (a, b) ->
        List.iter
          (fun node ->
            if Net.find_node net node = None then
              Alcotest.failf "backbone_hops %d: no node named %s" n node)
          (a @ b))
      (Scenarios.Topo.chaos_cuts ~backbone_hops:n)
  done

(* ---- the flight recorder flies on a re-flight ---- *)

let cell_de =
  { Mobileip.Grid.incoming = Mobileip.Grid.In_DE;
    outgoing = Mobileip.Grid.Out_DE }

let cell_dh =
  { Mobileip.Grid.incoming = Mobileip.Grid.In_DH;
    outgoing = Mobileip.Grid.Out_DH }

let tail_lines o =
  List.map Netobs.Export.line_of_record o.Experiments.Soak.recorder_tail

(* Harsh seed 0 violates on every cell.  With no tap the tail comes from
   a second, recorded flight; a [Net.with_tap] tap makes the run record in
   flight.  Both must carry the same outcome and tail. *)
let test_reflown_tail_is_in_flight_tail () =
  List.iter
    (fun cell ->
      let plan =
        Experiments.Soak.generate_plan ~profile:harsh ~cell ~seed:0 ()
      in
      let reflown =
        Experiments.Soak.replay ~profile:harsh ~cell ~seed:0 plan
      in
      let in_flight =
        Net.with_tap ignore (fun () ->
            Experiments.Soak.replay ~profile:harsh ~cell ~seed:0 plan)
      in
      let name = Mobileip.Grid.cell_to_string cell in
      Alcotest.(check bool)
        (name ^ " violates") true
        (reflown.Experiments.Soak.violations <> []);
      Alcotest.(check bool)
        (name ^ " same violations") true
        (reflown.Experiments.Soak.violations
        = in_flight.Experiments.Soak.violations);
      Alcotest.(check int)
        (name ^ " same checks") in_flight.Experiments.Soak.checks_run
        reflown.Experiments.Soak.checks_run;
      Alcotest.(check bool)
        (name ^ " same fault stats") true
        (reflown.Experiments.Soak.fault = in_flight.Experiments.Soak.fault);
      Alcotest.(check bool)
        (name ^ " tail recorded") true
        (in_flight.Experiments.Soak.recorder_tail <> []);
      Alcotest.(check (list string))
        (name ^ " same tail") (tail_lines in_flight) (tail_lines reflown))
    [ cell_ie; cell_de; cell_dh ];
  let passing =
    Experiments.Soak.replay ~profile:harsh ~cell:cell_ie ~seed:1
      (Experiments.Soak.generate_plan ~profile:harsh ~cell:cell_ie ~seed:1 ())
  in
  Alcotest.(check bool)
    "harsh seed 1 passes" true
    (passing.Experiments.Soak.violations = []);
  Alcotest.(check (list string)) "no tail" [] (tail_lines passing)

(* ---- malformed soak actions ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let action_plan ~kind ~arg =
  { Fault.seed = 1; events = [ Fault.Action { at_ = 12.5; kind; arg } ] }

(* A repro with a malformed action fails to load with an error naming the
   action, and [replay] refuses the same plan with the same message. *)
let test_rejects_action ~kind ~arg () =
  let plan = action_plan ~kind ~arg in
  match
    Experiments.Soak.repro_of_string
      (Experiments.Soak.repro_to_string ~seed:7 ~cell:cell_ie plan)
  with
  | Ok _ -> Alcotest.failf "action %s %S accepted" kind arg
  | Error e -> (
      List.iter
        (fun part ->
          if not (contains e part) then
            Alcotest.failf "error %S does not name %S" e part)
        [ kind; Printf.sprintf "%S" arg; "12.5" ];
      match Experiments.Soak.replay ~cell:cell_ie ~seed:7 plan with
      | _ -> Alcotest.failf "replay ran action %s %S" kind arg
      | exception Invalid_argument e' ->
          Alcotest.(check string) "replay's error" e e')

let test_accepts_actions () =
  List.iter
    (fun (kind, arg) ->
      match
        Experiments.Soak.repro_of_string
          (Experiments.Soak.repro_to_string ~seed:7 ~cell:cell_ie
             (action_plan ~kind ~arg))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      ("ha_outage", "0");
      ("ha_outage", "2.0");
      ("mh_move", "a");
      ("mh_move", "b");
    ]

(* ---- the TCP gave-up counter ---- *)

let test_tcp_retx_abort_counter () =
  let net = Net.create () in
  let s = Net.add_host net "s" in
  let d = Net.add_host net "d" in
  let _ =
    Net.p2p net ~latency:0.01 ~prefix:(p "10.0.0.0/30")
      (s, "if0", a "10.0.0.1") (d, "if0", a "10.0.0.2")
  in
  let tcp_d = Transport.Tcp.get d in
  Transport.Tcp.listen tcp_d ~port:9 (fun _ -> ());
  let tcp_s = Transport.Tcp.get s in
  (* An RST abort (nobody on port 777) must not count as a give-up. *)
  let rst_conn =
    Transport.Tcp.connect tcp_s ~dst:(a "10.0.0.2") ~dst_port:777 ()
  in
  let conn = Transport.Tcp.connect tcp_s ~dst:(a "10.0.0.2") ~dst_port:9 () in
  let fault = Fault.attach net in
  Fault.link_down fault ~at:1.0 ~link:"s<->d";
  Engine.schedule (Net.engine net) ~at:2.0 (fun () ->
      Transport.Tcp.send_data conn (Bytes.of_string "doomed"));
  Net.run net;
  Alcotest.(check bool)
    "rst abort" true
    (Transport.Tcp.state rst_conn = Transport.Tcp.Aborted);
  Alcotest.(check bool)
    "retx abort" true
    (Transport.Tcp.state conn = Transport.Tcp.Aborted);
  Alcotest.(check int)
    "one give-up on the sender" 1
    (Transport.Tcp.retx_aborts tcp_s);
  Alcotest.(check int)
    "none on the receiver" 0
    (Transport.Tcp.retx_aborts tcp_d)

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "invariant: binding lifetime" `Quick
          test_binding_lifetime_violation;
        Alcotest.test_case "invariant: binding lifetime clean with purge"
          `Quick test_binding_lifetime_clean_with_purge;
        Alcotest.test_case "invariant: withdrawal" `Quick
          test_withdrawal_violation;
        Alcotest.test_case "invariant: tcp stream" `Quick
          test_tcp_stream_violation;
        Alcotest.test_case "invariant: proxy arp purge" `Quick
          test_proxy_arp_violation;
        Alcotest.test_case "invariant: selector discipline" `Quick
          test_selector_discipline_violation;
        Alcotest.test_case "invariant: eventual recovery" `Quick
          test_eventual_recovery_violation;
        Alcotest.test_case "healthy world stays clean" `Quick
          test_healthy_world_clean;
        QCheck_alcotest.to_alcotest prop_generate_deterministic;
        QCheck_alcotest.to_alcotest prop_generate_respects_budget;
        QCheck_alcotest.to_alcotest prop_plan_json_roundtrip;
        Alcotest.test_case "generator: empty candidate lists" `Quick
          test_generate_empty_candidates;
        Alcotest.test_case "ddmin: single and paired triggers" `Quick
          test_ddmin_single_trigger;
        Alcotest.test_case "shrink: deterministic and minimal" `Quick
          test_shrink_deterministic_and_minimal;
        Alcotest.test_case "soak: reproducible sweep" `Quick
          test_soak_reproducible;
        Alcotest.test_case "soak: repro file round-trip" `Quick
          test_repro_roundtrip_with_annotations;
        Alcotest.test_case "soak: gentle CI range is clean" `Quick
          test_gentle_ci_range_clean;
        Alcotest.test_case "soak: plans need no world" `Quick
          test_plans_without_world;
        Alcotest.test_case "soak: chaos targets name the world" `Quick
          test_chaos_targets_name_the_world;
        Alcotest.test_case "soak: re-flown tail is the in-flight tail"
          `Quick test_reflown_tail_is_in_flight_tail;
        Alcotest.test_case "soak: rejects a negative outage" `Quick
          (test_rejects_action ~kind:"ha_outage" ~arg:"-5");
        Alcotest.test_case "soak: rejects a nan outage" `Quick
          (test_rejects_action ~kind:"ha_outage" ~arg:"nan");
        Alcotest.test_case "soak: rejects a non-numeric outage" `Quick
          (test_rejects_action ~kind:"ha_outage" ~arg:"abc");
        Alcotest.test_case "soak: rejects an unknown action" `Quick
          (test_rejects_action ~kind:"reboot" ~arg:"");
        Alcotest.test_case "soak: rejects a move to neither address" `Quick
          (test_rejects_action ~kind:"mh_move" ~arg:"c");
        Alcotest.test_case "soak: accepts well-formed actions" `Quick
          test_accepts_actions;
        Alcotest.test_case "tcp: retx-abort counter" `Quick
          test_tcp_retx_abort_counter;
      ] );
  ]
