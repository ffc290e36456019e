(* The chaos soak harness: sweep seeds over randomized fault plans while
   the invariant oracle watches, then shrink every failing plan to a
   minimal repro.

   One run = one (seed, cell) pair.  The seed deterministically derives
   the whole run: the world shape (backbone depth alternates with the
   seed's parity, so a sweep also sweeps topologies), the fault plan
   (through {!Netsim.Chaos.generate}), and every probabilistic effect
   inside the plan.  Replaying the same (seed, cell, plan) is bit-for-bit
   identical, which is what makes delta-debugging shrinks trustworthy. *)

open Mobileip

type profile = {
  events : int;  (* fault events per generated plan *)
  horizon : float;  (* scripted activity ends by this sim time *)
  max_window : float;  (* longest single fault window *)
  outages : float list;  (* candidate ha_outage durations, seconds *)
  mh_lifetime : int;  (* registration lifetime the MH requests *)
  max_renewals : int;  (* keepalive renewal budget *)
  retry_limit : int;  (* registration transmissions before giving up *)
  with_standby : bool;  (* pair a hot-standby home agent *)
}

let gentle =
  {
    events = 6;
    horizon = 30.0;
    max_window = 4.0;
    outages = [ 2.0; 3.0 ];
    mh_lifetime = 10;
    max_renewals = 12;
    retry_limit = 4;
    (* The short outages are exactly what the standby is for: detection is
       tightened (0.5 s poll / 1 s timeout) so even a 2 s outage exercises
       takeover and failback under the ha-failover-recovery invariant. *)
    with_standby = true;
  }

let harsh =
  {
    events = 8;
    horizon = 30.0;
    max_window = 8.0;
    outages = [ 12.0; 16.0 ];
    mh_lifetime = 10;
    max_renewals = 3;
    retry_limit = 3;
    with_standby = false;
  }

type outcome = {
  violations : Netsim.Invariant.violation list;
  checks_run : int;
  tcp_retx_aborts : int;
  fault : Netsim.Fault.stats;
  recorder_tail : Netsim.Trace.record list;
}

type finding = {
  f_seed : int;
  f_cell : Grid.cell;
  f_plan : Netsim.Fault.plan;
  f_outcome : outcome;
  f_shrunk : Netsim.Fault.plan;
  f_replays : int;  (* replays the shrink spent *)
}

type report = {
  seed_lo : int;
  seed_hi : int;
  cells : Grid.cell list;
  runs : int;
  total_checks : int;
  total_retx_aborts : int;
  findings : finding list;
}

let default_cells =
  Grid.
    [
      { incoming = In_IE; outgoing = Out_IE };
      { incoming = In_DE; outgoing = Out_DE };
      { incoming = In_DH; outgoing = Out_DH };
    ]

(* The visited-segment addresses the mh_move action hops between, and the
   care-of address every run starts from. *)
let addr_a = Netsim.Ipv4_addr.of_string "131.7.0.200"
let addr_b = Netsim.Ipv4_addr.of_string "131.7.0.201"
let gateway = Netsim.Ipv4_addr.of_string "131.7.0.1"
let stream_port = 40100
let pat i = Char.chr (Char.code 'a' + (i mod 26))

(* The topology dimension of the sweep. *)
let hops_for seed = 4 + (seed land 1)

let build_world profile ~cell ~seed =
  let same_segment = cell.Grid.incoming = Grid.In_DH in
  Scenarios.Topo.build ~backbone_hops:(hops_for seed)
    ~ch_position:
      (if same_segment then Scenarios.Topo.On_visited_segment
       else Scenarios.Topo.Remote)
    ~ch_capability:Correspondent.Mobile_aware ~mh_lifetime:profile.mh_lifetime
    ~mh_retry_base:0.5 ~mh_retry_cap:2.0 ~mh_retry_limit:profile.retry_limit
    ~with_standby_ha:profile.with_standby ~standby_detect_interval:0.5
    ~standby_detect_timeout:1.0 ()

(* The plan's vocabulary names the seed's world without building it. *)
let budget_for profile ~seed =
  let backbone_hops = hops_for seed in
  {
    Netsim.Chaos.events = profile.events;
    horizon = profile.horizon;
    links = Scenarios.Topo.chaos_links ~backbone_hops;
    cuts = Scenarios.Topo.chaos_cuts ~backbone_hops;
    actions =
      [
        ("ha_outage", List.map (Printf.sprintf "%.1f") profile.outages);
        ("mh_move", [ "a"; "b" ]);
      ];
    max_window = profile.max_window;
    max_extra_latency = 0.4;
  }

let generate_plan ?(profile = gentle) ~cell:_ ~seed () =
  Netsim.Chaos.generate ~seed (budget_for profile ~seed)

(* The action vocabulary the generator draws from: an outage lasts a
   finite, non-negative number of seconds, and a move goes to visited
   address a or b. *)
type action = Ha_outage of float | Mh_move of Netsim.Ipv4_addr.t

let action_of ~at ~kind ~arg =
  let bad expected =
    Error
      (Printf.sprintf "soak plan: action %s %S at %g s: %s" kind arg at
         expected)
  in
  match kind with
  | "ha_outage" -> (
      match float_of_string_opt arg with
      | Some d when Float.is_finite d && d >= 0.0 -> Ok (Ha_outage d)
      | _ -> bad "expected a finite outage of 0 s or more")
  | "mh_move" -> (
      match arg with
      | "a" -> Ok (Mh_move addr_a)
      | "b" -> Ok (Mh_move addr_b)
      | _ -> bad "expected a or b")
  | _ -> bad "unknown kind (expected ha_outage or mh_move)"

(* [Ok plan] when every action of the plan is in the vocabulary. *)
let check_actions plan =
  List.fold_left
    (fun acc ev ->
      match (acc, ev) with
      | Ok _, Netsim.Fault.Action { at_; kind; arg } ->
          Result.map (fun _ -> plan) (action_of ~at:at_ ~kind ~arg)
      | _ -> acc)
    (Ok plan) plan.Netsim.Fault.events

(* One flight of a (seed, cell, plan) run.  [recorder] says whether it
   carries the flight recorder: [`Never], [`Always], or [`If_observed] —
   only when an observer, such as a [Net.with_tap] tap, already makes the
   world build every record.  Returns the outcome and whether the
   recorder flew. *)
let fly ~recorder profile ~cell ~seed plan =
  let topo = build_world profile ~cell ~seed in
  let net = topo.Scenarios.Topo.net in
  (* Nothing reads this world's in-memory trace log: the invariants poll
     agent state and the recorder, when it flies, is a ring on the trace.
     With the log off and no recorder, nothing builds events at all; a
     tap ([--pcap]) still gets full records. *)
  Netsim.Net.set_tracing net false;
  let eng = Netsim.Net.engine net in
  let mh = topo.Scenarios.Topo.mh in
  let ch = topo.Scenarios.Topo.ch in
  let ch_addr = topo.Scenarios.Topo.ch_addr in
  (* Settle away from home before the chaos begins. *)
  Mobile_host.move_to_static mh topo.Scenarios.Topo.visited_segment
    ~addr:addr_a ~prefix:topo.Scenarios.Topo.visited_prefix ~gateway ();
  Scenarios.Topo.run topo;
  let home, _coa = Conversation.configure ~mh ~ch ~ch_addr ~cell in
  Mobile_host.enable_keepalive mh ~margin:5.0
    ~max_renewals:profile.max_renewals ();
  Home_agent.enable_purge topo.Scenarios.Topo.ha ~interval:5.0 ();

  (* The oracle: the standard invariants, recovery judged from the end of
     the plan, and a monitored TCP byte stream MH -> CH. *)
  let oracle = Scenarios.Oracle.create topo in
  Scenarios.Oracle.install_standard
    ~recovery_after:(Netsim.Fault.plan_end plan)
    oracle;
  (* With the recorder attached, a violating run's outcome carries the
     last events before the violation. *)
  let recorded =
    match recorder with
    | `Never -> false
    | `Always -> true
    | `If_observed -> Netsim.Trace.interested (Netsim.Net.trace net)
  in
  if recorded then
    Scenarios.Oracle.attach_recorder oracle;
  let ch_tcp = Transport.Tcp.get topo.Scenarios.Topo.ch_node in
  Transport.Tcp.listen ch_tcp ~port:stream_port (fun conn ->
      Scenarios.Oracle.add_tcp_stream ~expected:pat oracle conn);
  let mh_tcp = Transport.Tcp.get (Mobile_host.node mh) in
  let conn =
    Transport.Tcp.connect mh_tcp ~src:home ~dst:ch_addr ~dst_port:stream_port
      ()
  in
  let t0 = Netsim.Engine.now eng in
  let sent = ref 0 in
  let chunk = 8 in
  let n_chunks = int_of_float (profile.horizon /. 0.5) in
  for k = 0 to n_chunks - 1 do
    Netsim.Engine.schedule eng
      ~at:(t0 +. (0.5 *. float_of_int k))
      (fun () ->
        if Transport.Tcp.state conn = Transport.Tcp.Established then begin
          let b = Bytes.init chunk (fun i -> pat (!sent + i)) in
          sent := !sent + chunk;
          Transport.Tcp.send_data conn b
        end)
  done;
  Scenarios.Oracle.start ~interval:1.0
    ~ticks:(int_of_float profile.horizon + 60)
    oracle;

  let action ~at ~kind ~arg =
    match action_of ~at ~kind ~arg with
    | Ok (Ha_outage d) ->
        Home_agent.crash topo.Scenarios.Topo.ha;
        Netsim.Engine.schedule eng
          ~at:(Netsim.Engine.now eng +. d)
          (fun () -> Home_agent.restart topo.Scenarios.Topo.ha)
    | Ok (Mh_move target) ->
        Mobile_host.move_to_static mh topo.Scenarios.Topo.visited_segment
          ~addr:target ~prefix:topo.Scenarios.Topo.visited_prefix ~gateway ()
    | Error e -> invalid_arg e
  in
  let fault = Netsim.Fault.apply ~action net plan in
  Netsim.Net.run net;
  Scenarios.Oracle.finish oracle;
  Conversation.deconfigure ~mh ~ch ~ch_addr;
  ( {
      violations = Scenarios.Oracle.violations oracle;
      checks_run = Netsim.Invariant.checks_run (Scenarios.Oracle.inv oracle);
      tcp_retx_aborts =
        Transport.Tcp.retx_aborts mh_tcp + Transport.Tcp.retx_aborts ch_tcp;
      fault = Netsim.Fault.stats fault;
      recorder_tail = Scenarios.Oracle.recorder_tail oracle;
    },
    recorded )

(* Only a violating run reads the recorder's tail, so a run flies without
   it and only a violation is flown again, recorder attached: replay is
   bit-for-bit deterministic, so the second flight is the first one
   recorded.  A run a tap observes records in flight instead, so that
   the tap sees it once. *)
let replay ?(profile = gentle) ~cell ~seed plan =
  (match check_actions plan with Ok _ -> () | Error e -> invalid_arg e);
  let first, recorded = fly ~recorder:`If_observed profile ~cell ~seed plan in
  if first.violations = [] || recorded then first
  else begin
    let again, _ = fly ~recorder:`Always profile ~cell ~seed plan in
    if again.violations <> first.violations then
      failwith
        (Printf.sprintf
           "Soak.replay: seed %d, cell %s: the recorded re-flight did not \
            reproduce the first flight's violations"
           seed (Grid.cell_to_string cell));
    again
  end

let violated_names outcome =
  List.sort_uniq String.compare
    (List.map (fun v -> v.Netsim.Invariant.name) outcome.violations)

let shrink_plan ?(profile = gentle) ~cell ~seed plan outcome =
  let orig = violated_names outcome in
  let still_failing p =
    let o, _ = fly ~recorder:`Never profile ~cell ~seed p in
    List.for_all (fun n -> List.mem n (violated_names o)) orig
  in
  Netsim.Chaos.shrink ~still_failing plan

let run ?(profile = gentle) ?(seed_lo = 0) ?(seed_hi = 4)
    ?(cells = default_cells) ?(shrink = true) () =
  if seed_hi < seed_lo then invalid_arg "Soak.run: empty seed range";
  let findings = ref [] in
  let checks = ref 0 in
  let aborts = ref 0 in
  let runs = ref 0 in
  for seed = seed_lo to seed_hi do
    List.iter
      (fun cell ->
        incr runs;
        let plan = generate_plan ~profile ~cell ~seed () in
        let outcome = replay ~profile ~cell ~seed plan in
        checks := !checks + outcome.checks_run;
        aborts := !aborts + outcome.tcp_retx_aborts;
        if outcome.violations <> [] then begin
          let shrunk, replays =
            if shrink then shrink_plan ~profile ~cell ~seed plan outcome
            else (plan, 0)
          in
          findings :=
            {
              f_seed = seed;
              f_cell = cell;
              f_plan = plan;
              f_outcome = outcome;
              f_shrunk = shrunk;
              f_replays = replays;
            }
            :: !findings
        end)
      cells
  done;
  {
    seed_lo;
    seed_hi;
    cells;
    runs = !runs;
    total_checks = !checks;
    total_retx_aborts = !aborts;
    findings = List.rev !findings;
  }

(* ---- repro files ----

   A repro file is a {!Netsim.Fault} plan JSON with two extra keys
   ([soak_seed], [cell]) naming the run that produced it; the extra keys
   are ignored by [Fault.plan_of_json], so the file stays loadable as a
   plain plan. *)

let repro_json ~seed ~cell plan =
  match Netsim.Fault.plan_to_json plan with
  | Netsim.Json.Obj fields ->
      Netsim.Json.Obj
        (fields
        @ [
            ("soak_seed", Netsim.Json.Int seed);
            ("cell", Netsim.Json.String (Grid.cell_to_string cell));
          ])
  | j -> j

let repro_to_string ~seed ~cell plan =
  Netsim.Json.to_string (repro_json ~seed ~cell plan)

let cell_of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let inc = String.sub s 0 i in
      let out = String.sub s (i + 1) (String.length s - i - 1) in
      match (Grid.in_of_string inc, Grid.out_of_string out) with
      | Some incoming, Some outgoing -> Some { Grid.incoming; outgoing }
      | _ -> None)

let repro_of_string s =
  match Netsim.Json.of_string s with
  | Error e -> Error e
  | Ok j -> (
      match Result.bind (Netsim.Fault.plan_of_json j) check_actions with
      | Error e -> Error e
      | Ok plan ->
          let seed =
            Option.bind (Netsim.Json.member "soak_seed" j) Netsim.Json.get_int
          in
          let cell =
            Option.bind
              (Option.bind (Netsim.Json.member "cell" j)
                 Netsim.Json.get_string)
              cell_of_string
          in
          Ok (plan, seed, cell))

(* ---- the E17 table ---- *)

let e17_seed_lo = 0
let e17_seed_hi = 9

let run_e17 () = run ~profile:harsh ~seed_lo:e17_seed_lo ~seed_hi:e17_seed_hi ()

let mean l =
  match l with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

let run_table () =
  let report = run_e17 () in
  let rows =
    List.map
      (fun cell ->
        let fs =
          List.filter (fun f -> Grid.equal_cell f.f_cell cell) report.findings
        in
        let shrink_factors =
          List.filter_map
            (fun f ->
              let before = List.length f.f_plan.Netsim.Fault.events in
              let after = List.length f.f_shrunk.Netsim.Fault.events in
              if after = 0 then None
              else Some (float_of_int before /. float_of_int after))
            fs
        in
        let invariants =
          List.sort_uniq String.compare
            (List.concat_map (fun f -> violated_names f.f_outcome) fs)
        in
        [
          Grid.cell_to_string cell;
          string_of_int (report.seed_hi - report.seed_lo + 1);
          string_of_int (List.length fs);
          (if invariants = [] then "-" else String.concat " " invariants);
          (match mean shrink_factors with
          | None -> "-"
          | Some x -> Printf.sprintf "%.1fx" x);
          (match
             mean (List.map (fun f -> float_of_int f.f_replays) fs)
           with
          | None -> "-"
          | Some x -> Printf.sprintf "%.0f" x);
        ])
      report.cells
  in
  ( report,
    {
      Table.id = "E17";
      title = "Chaos soak: randomized fault plans under the invariant oracle";
      paper_claim =
        "the paper's mobility machinery must hold its safety properties \
         (bindings, caches, proxy ARP, stream integrity) under arbitrary \
         timing of failures, not just the scripted churn of E16";
      columns =
        [
          "cell";
          "seeds";
          "violations";
          "invariants hit";
          "mean shrink";
          "mean replays";
        ];
      rows;
      notes =
        [
          Printf.sprintf
            "harsh profile: %d events in a %.0f s horizon, home-agent \
             outages of %s s against a keepalive budget of %d renewals and \
             %d registration transmissions"
            harsh.events harsh.horizon
            (String.concat "/" (List.map (Printf.sprintf "%.0f") harsh.outages))
            harsh.max_renewals harsh.retry_limit;
          "every violation is delta-debugged to a minimal plan that still \
           violates the same invariants; 'mean shrink' is events-before / \
           events-after, 'mean replays' what the shrink cost";
          "deterministic: the seed derives the topology depth, the fault \
           plan and all probabilistic effects; the same sweep reproduces \
           the identical table";
        ];
    } )
