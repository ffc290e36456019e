(* The mobility4x4 command-line tool.

   Subcommands:
     grid                    print the 4x4 grid with classifications
     best                    run the series of tests for a described environment
     experiments [IDS]       run experiment reproductions (default: all)
     scenario NAME           run a canned scenario with a packet trace
     stats                   run a reference workload and print a Netobs
                             metrics snapshot (engine gauges, per-cell
                             flow-latency histograms)
     soak                    sweep seeded random fault plans under the
                             invariant oracle; shrink violations to
                             minimal JSON repros
     list                    list experiments and scenarios

   [scenario] and [experiments] accept [--trace-json FILE] to dump the
   full packet telemetry as JSONL (one Netobs.Export event per line). *)

open Cmdliner

let out_fmt = Format.std_formatter

(* ---- grid ---- *)

let grid_cmd =
  let run () =
    Format.printf "The Internet Mobility 4x4 grid (Figure 10)@.@.";
    Format.printf "  %-14s" "";
    List.iter
      (fun o -> Format.printf " %-10s" (Mobileip.Grid.out_to_string o))
      Mobileip.Grid.all_out;
    Format.printf "@.";
    List.iter
      (fun i ->
        Format.printf "  %-14s" (Mobileip.Grid.in_to_string i);
        List.iter
          (fun o ->
            let c = { Mobileip.Grid.incoming = i; outgoing = o } in
            let cls =
              match Mobileip.Grid.classify c with
              | Mobileip.Grid.Useful -> "USEFUL"
              | Mobileip.Grid.Valid_but_unlikely -> "unlikely"
              | Mobileip.Grid.Broken -> "-"
            in
            Format.printf " %-10s" cls)
          Mobileip.Grid.all_out;
        Format.printf "@.")
      Mobileip.Grid.all_in;
    Format.printf "@.Cells:@.";
    List.iter
      (fun c ->
        if Mobileip.Grid.classify c <> Mobileip.Grid.Broken then
          Format.printf "  %-14s %s@."
            (Mobileip.Grid.cell_to_string c)
            (Mobileip.Grid.describe_cell c))
      Mobileip.Grid.all_cells
  in
  Cmd.v (Cmd.info "grid" ~doc:"Print the 4x4 grid and its classification")
    Term.(const run $ const ())

(* ---- best ---- *)

let best_cmd =
  let mobility =
    Arg.(value & opt bool true & info [ "mobility" ] ~doc:"Durable connections needed")
  in
  let privacy =
    Arg.(value & flag & info [ "privacy" ] ~doc:"Hide the current location")
  in
  let filtering =
    Arg.(
      value & opt bool true
      & info [ "filtering" ] ~doc:"Source-address filtering on the path")
  in
  let decap =
    Arg.(value & flag & info [ "decap" ] ~doc:"Correspondent can decapsulate")
  in
  let aware =
    Arg.(value & flag & info [ "aware" ] ~doc:"Correspondent is mobile-aware")
  in
  let knows =
    Arg.(
      value & flag
      & info [ "knows-care-of" ] ~doc:"Correspondent knows the care-of address")
  in
  let segment =
    Arg.(value & flag & info [ "same-segment" ] ~doc:"Hosts share a segment")
  in
  let run mobility privacy filtering decap aware knows segment =
    let env =
      {
        Mobileip.Grid.mobility_required = mobility;
        privacy_required = privacy;
        source_filtering_on_path = filtering;
        ch_decapsulates = decap;
        ch_mobile_aware = aware;
        ch_knows_care_of = knows;
        same_segment = segment;
      }
    in
    let cell = Mobileip.Grid.best env in
    Format.printf "best cell: %s@." (Mobileip.Grid.cell_to_string cell);
    Format.printf "  incoming: %s@." (Mobileip.Grid.describe_in cell.Mobileip.Grid.incoming);
    Format.printf "  outgoing: %s@." (Mobileip.Grid.describe_out cell.Mobileip.Grid.outgoing);
    Format.printf "  why: %s@." (Mobileip.Grid.describe_cell cell)
  in
  Cmd.v
    (Cmd.info "best"
       ~doc:"Run the series of tests that picks the best cell for an environment")
    Term.(const run $ mobility $ privacy $ filtering $ decap $ aware $ knows $ segment)

(* ---- structured trace export ---- *)

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write the run's packet telemetry to $(docv) as JSONL (one \
              trace event per line)")

let pcap_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pcap" ] ~docv:"FILE"
        ~doc:"Write every transmitted frame to $(docv) as a libpcap \
              capture (LINKTYPE_RAW; open it with tcpdump or Wireshark)")

let open_trace_out file =
  try Ok (open_out file)
  with Sys_error msg -> Error (Printf.sprintf "--trace-json: %s" msg)

(* Stream every trace record (from every world the run creates) to FILE.
   A Net.with_tap tap, so it tees with --pcap and any recorder. *)
let with_trace_stream file f =
  match file with
  | None -> f ()
  | Some file -> (
      match open_trace_out file with
      | Error e -> `Error (false, e)
      | Ok oc ->
      let n = ref 0 in
      Fun.protect
        ~finally:(fun () ->
          close_out oc;
          Printf.eprintf "trace-json: wrote %d events to %s\n%!" !n file)
        (fun () ->
          Netsim.Net.with_tap
            (fun r ->
              incr n;
              Netobs.Export.sink_to_channel oc r)
            f))

(* Stream every Transmit frame (from every world the run creates) to FILE
   as pcap packets, through a Net.with_tap tap. *)
let with_pcap_stream file f =
  match file with
  | None -> f ()
  | Some file -> (
      match
        try Ok (open_out_bin file)
        with Sys_error msg -> Error (Printf.sprintf "--pcap: %s" msg)
      with
      | Error e -> `Error (false, e)
      | Ok oc ->
          Netobs.Pcap.write_header oc;
          let n = ref 0 in
          Fun.protect
            ~finally:(fun () ->
              close_out oc;
              Printf.eprintf "pcap: wrote %d packets to %s\n%!" !n file)
            (fun () ->
              Netsim.Net.with_tap
                (fun r ->
                  match Netobs.Pcap.packet_of_record r with
                  | Some (time, payload) ->
                      incr n;
                      Netobs.Pcap.append_packet oc ~time payload
                  | None -> ())
                f))

(* Post-hoc dump of one finished world's trace: exactly Trace.length lines.
   The channel is opened before the scenario runs so a bad path fails fast. *)
let dump_trace_json oc file net =
  let n = Netobs.Export.write_trace_jsonl oc (Netsim.Net.trace net) in
  close_out oc;
  Printf.eprintf "trace-json: wrote %d events to %s\n%!" n file

(* ---- experiments ---- *)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E14)")
  in
  let run ids trace_json pcap =
    with_trace_stream trace_json (fun () ->
        with_pcap_stream pcap (fun () ->
            match ids with
            | [] ->
                Experiments.Registry.run_all out_fmt;
                `Ok ()
            | ids ->
                let bad =
                  List.filter
                    (fun id -> not (Experiments.Registry.run_one out_fmt id))
                    ids
                in
                if bad = [] then `Ok ()
                else
                  `Error
                    (false, "unknown experiment(s): " ^ String.concat ", " bad)))
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's figures and claims")
    Term.(ret (const run $ ids $ trace_json_arg $ pcap_arg))

(* ---- scenario ---- *)

let scenarios : (string * string * (unit -> Netsim.Net.t)) list =
  let trace_world topo f =
    Scenarios.Topo.roam topo ();
    Netsim.Trace.clear (Netsim.Net.trace topo.Scenarios.Topo.net);
    f ();
    Scenarios.Topo.run topo;
    Netsim.Trace.dump out_fmt (Netsim.Net.trace topo.Scenarios.Topo.net);
    topo.Scenarios.Topo.net
  in
  let roaming_telnet () =
    (* The examples/roaming_telnet.ml walk-through as a scenario: a telnet
       session bound to the home address survives two moves.  The full
       telemetry (registration, tunneling, every keystroke echo) stays in
       the trace for --trace-json; only the summary is printed. *)
    let topo = Scenarios.Topo.build () in
    let net = topo.Scenarios.Topo.net in
    Scenarios.Workload.tcp_echo_server topo.Scenarios.Topo.ch_node
      ~port:Transport.Well_known.telnet;
    let tcp = Transport.Tcp.get topo.Scenarios.Topo.mh_node in
    let conn =
      Transport.Tcp.connect tcp ~src:topo.Scenarios.Topo.mh_home_addr
        ~dst:topo.Scenarios.Topo.ch_addr ~dst_port:Transport.Well_known.telnet
        ()
    in
    let echoes = ref 0 in
    Transport.Tcp.on_receive conn (fun _ -> incr echoes);
    let type_lines n =
      for _ = 1 to n do
        Transport.Tcp.send_data conn (Bytes.of_string "make world\n")
      done;
      Netsim.Net.run net
    in
    let report phase =
      Format.printf "%-28s state=%a echoes=%d location=%s@." phase
        Transport.Tcp.pp_state (Transport.Tcp.state conn) !echoes
        (match
           Mobileip.Mobile_host.care_of_address topo.Scenarios.Topo.mh
         with
        | Some coa -> "away @ " ^ Netsim.Ipv4_addr.to_string coa
        | None -> "at home")
    in
    type_lines 3;
    report "working at home:";
    Scenarios.Topo.roam topo ();
    type_lines 3;
    report "moved to visited network:";
    Scenarios.Topo.come_home topo;
    type_lines 3;
    report "back home again:";
    Format.printf "retransmissions over the whole session: %d@."
      (Transport.Tcp.retransmissions conn);
    Format.printf "trace: %d events across %d flows@."
      (Netsim.Trace.length (Netsim.Net.trace net))
      (List.length (Netsim.Trace.flows (Netsim.Net.trace net)));
    net
  in
  [
    ( "basic-tunnel",
      "Figure 1: a conventional correspondent pings the roaming mobile host",
      fun () ->
        let topo = Scenarios.Topo.build () in
        trace_world topo (fun () ->
            let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
            Transport.Icmp_service.ping icmp
              ~dst:topo.Scenarios.Topo.mh_home_addr (fun ~rtt ->
                Format.printf "rtt: %s@." (Experiments.Table.ms rtt))) );
    ( "filtered",
      "Figure 2/3: filtering kills Out-DH, reverse tunneling recovers",
      fun () ->
        let topo =
          Scenarios.Topo.build ~ch_position:Scenarios.Topo.Inside_home
            ~filtering:Scenarios.Topo.ingress_only ()
        in
        trace_world topo (fun () ->
            Mobileip.Mobile_host.set_default_method topo.Scenarios.Topo.mh
              Mobileip.Grid.Out_DH;
            let udp = Transport.Udp_service.get topo.Scenarios.Topo.mh_node in
            ignore
              (Transport.Udp_service.send udp
                 ~src:topo.Scenarios.Topo.mh_home_addr
                 ~dst:topo.Scenarios.Topo.ch_addr ~src_port:5000 ~dst_port:9
                 (Bytes.of_string "dropped-by-filter"))) );
    ( "smart-ch",
      "Figure 5: ICMP discovery switches the correspondent to In-DE",
      fun () ->
        let topo =
          Scenarios.Topo.build
            ~ch_capability:Mobileip.Correspondent.Mobile_aware
            ~notify_correspondents:true ()
        in
        trace_world topo (fun () ->
            let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
            Transport.Icmp_service.ping icmp
              ~dst:topo.Scenarios.Topo.mh_home_addr (fun ~rtt ->
                Format.printf "first rtt: %s@." (Experiments.Table.ms rtt);
                Transport.Icmp_service.ping icmp
                  ~dst:topo.Scenarios.Topo.mh_home_addr (fun ~rtt ->
                    Format.printf "second rtt: %s@." (Experiments.Table.ms rtt)))) );
    ( "roaming_telnet",
      "Section 2: a telnet session survives two moves (summary + full trace)",
      roaming_telnet );
  ]

let scenario_cmd =
  let scenario_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Scenario name")
  in
  let run name trace_json pcap =
    match List.find_opt (fun (n, _, _) -> n = name) scenarios with
    | Some (_, _, f) -> (
        with_pcap_stream pcap (fun () ->
            match trace_json with
            | None ->
                let (_ : Netsim.Net.t) = f () in
                `Ok ()
            | Some file -> (
                match open_trace_out file with
                | Error e -> `Error (false, e)
                | Ok oc ->
                    let net = f () in
                    dump_trace_json oc file net;
                    `Ok ())))
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown scenario %S; try: %s" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) scenarios)) )
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a canned scenario and dump its packet trace")
    Term.(
      ret (const run $ scenario_arg $ trace_json_arg $ pcap_arg))

let rules_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Policy rules file (prefix mode lines)")
  in
  let dst =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"ADDR" ~doc:"Destination address to look up")
  in
  let run file dst =
    match Netsim.Ipv4_addr.of_string_opt dst with
    | None -> `Error (false, Printf.sprintf "bad address %S" dst)
    | Some addr -> (
        let text =
          let ic = open_in file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        match Mobileip.Policy_table.of_string text with
        | Error e -> `Error (false, e)
        | Ok table ->
            let mode = Mobileip.Policy_table.mode_for table addr in
            Format.printf "%s -> %a (start with %s)@." dst
              Mobileip.Policy_table.pp_mode mode
              (match mode with
              | Mobileip.Policy_table.Optimistic -> "Out-DH, fall back on failure"
              | Mobileip.Policy_table.Pessimistic -> "Out-IE, always");
            `Ok ())
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:"Look up a destination in a user policy-rules file (section 7.1.2)")
    Term.(ret (const run $ file $ dst))

(* ---- stats ---- *)

let stats_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the snapshot as JSON instead of a table")
  in
  let run json =
    let reg = Netobs.Metrics.create () in
    let gauge name help v =
      Netobs.Metrics.set (Netobs.Metrics.gauge reg ~help name) v
    in
    let count name help by =
      Netobs.Metrics.incr ~by (Netobs.Metrics.counter reg ~help name)
    in
    (* Reference world: the standard topology, a roam and a tunneled ping;
       its engine statistics become the engine gauges, and the host time
       it takes, measured here, the two time gauges. *)
    let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
    let topo = Scenarios.Topo.build () in
    let net = topo.Scenarios.Topo.net in
    Scenarios.Topo.roam topo ();
    let icmp = Transport.Icmp_service.get topo.Scenarios.Topo.ch_node in
    Transport.Icmp_service.ping icmp ~dst:topo.Scenarios.Topo.mh_home_addr
      (fun ~rtt:_ -> ());
    Scenarios.Topo.run topo;
    let wall = Unix.gettimeofday () -. wall0 and cpu = Sys.time () -. cpu0 in
    let st = Netsim.Net.stats net in
    gauge "engine_events_executed" "events run by the reference world's engine"
      (float_of_int st.Netsim.Engine.executed);
    gauge "engine_queue_depth" "pending events when the run finished"
      (float_of_int st.Netsim.Engine.pending);
    gauge "engine_queue_depth_max" "high-water mark of the event queue"
      (float_of_int st.Netsim.Engine.max_pending);
    gauge "engine_timers_cancelled" "events cancelled before they ran"
      (float_of_int st.Netsim.Engine.cancelled);
    gauge "engine_runs_truncated" "runs stopped by the max_events guard"
      (float_of_int st.Netsim.Engine.truncated);
    gauge "engine_sim_time_s" "simulated seconds" st.Netsim.Engine.sim_time;
    gauge "engine_wall_time_s" "host wall-clock seconds of the reference run"
      wall;
    gauge "engine_cpu_time_s" "host CPU seconds of the reference run" cpu;
    let trace = Netsim.Net.trace net in
    count "trace_events_total" "trace records in the reference world"
      (Netsim.Trace.length trace);
    count "trace_flows_total" "distinct flows in the reference world"
      (List.length (Netsim.Trace.flows trace));
    (* Per-cell flow-latency histograms from live conversations (the E8
       harness): one histogram per non-broken grid cell, fed with the
       one-way latencies of its request and reply flows. *)
    List.iter
      (fun cell ->
        if Mobileip.Grid.classify cell <> Mobileip.Grid.Broken then begin
          let r = Experiments.E08_grid.run_cell cell in
          let h =
            Netobs.Metrics.histogram reg
              ~help:"one-way flow latency, both directions"
              (Printf.sprintf "flow_latency_ms{cell=%s}"
                 (Mobileip.Grid.cell_to_string cell))
          in
          let observe = function
            | Some l -> Netobs.Metrics.observe h (l *. 1000.0)
            | None -> ()
          in
          observe r.Mobileip.Conversation.request_latency;
          observe r.Mobileip.Conversation.reply_latency;
          count "cell_requests_delivered_total"
            "requests delivered across all measured cells"
            r.Mobileip.Conversation.requests_delivered;
          count "cell_replies_delivered_total"
            "replies delivered across all measured cells"
            r.Mobileip.Conversation.replies_delivered
        end)
      Mobileip.Grid.all_cells;
    (* Fault-injection reference: one E16 churn cell (In-IE/Out-IE — the
       always-works cell, and the one every scripted fault touches) feeds
       the fault counters and the recovery-time histogram. *)
    let churn =
      Experiments.E16_handover_churn.run_cell
        { Mobileip.Grid.incoming = Mobileip.Grid.In_IE;
          outgoing = Mobileip.Grid.Out_IE }
    in
    let fault = churn.Experiments.E16_handover_churn.fault in
    count "fault_link_flap_drops_total"
      "frame copies dropped on scripted-down links (E16 reference cell)"
      fault.Netsim.Fault.flap_drops;
    count "fault_partition_drops_total"
      "frame copies dropped crossing a scripted partition"
      fault.Netsim.Fault.partition_drops;
    count "fault_duplicated_total"
      "extra frame copies injected by duplication windows"
      fault.Netsim.Fault.duplicated;
    count "fault_delayed_total" "frame copies given reordering jitter"
      fault.Netsim.Fault.delayed;
    count "churn_probes_lost_total"
      "probes never delivered during the E16 reference churn"
      churn.Experiments.E16_handover_churn.lost;
    count "churn_reg_transmissions_total"
      "registration requests (retries included) the churn cost"
      churn.Experiments.E16_handover_churn.reg_transmissions;
    let rh =
      Netobs.Metrics.histogram reg
        ~help:"delivery gap after each disruptive event (E16 reference cell)"
        "churn_recovery_ms"
    in
    List.iter
      (function
        | Some s -> Netobs.Metrics.observe rh (s *. 1000.0)
        | None -> ())
      [
        churn.Experiments.E16_handover_churn.move1_recovery;
        churn.Experiments.E16_handover_churn.move2_recovery;
        churn.Experiments.E16_handover_churn.crash_recovery;
      ];
    (* Failure-signaling and failover reference (the E19 scenarios): the
       ICMP feedback counters from the signaled-filtering run and the
       standby takeover latency histogram from the crash run. *)
    let fr = Experiments.E19_failover.run_filtering ~signaled:true () in
    count "icmp_errors_sent_total"
      "ICMP destination-unreachable errors routers emitted (E19 part A, \
       signaled)"
      fr.Experiments.E19_failover.icmp_sent;
    count "icmp_errors_consumed_total"
      "ICMP errors the mobility software consumed as negative feedback"
      fr.Experiments.E19_failover.icmp_consumed;
    let fo = Experiments.E19_failover.run_failover ~standby:true () in
    count "ha_takeovers_total"
      "standby home-agent takeovers (E19 part B, with standby)"
      fo.Experiments.E19_failover.takeovers;
    let fh =
      Netobs.Metrics.histogram reg
        ~help:"standby detection latency: primary observed down -> takeover"
        "ha_failover_ms"
    in
    (match fo.Experiments.E19_failover.failover with
    | Some s -> Netobs.Metrics.observe fh (s *. 1000.0)
    | None -> ());
    let snap = Netobs.Metrics.snapshot reg in
    if json then
      print_endline (Netsim.Json.to_string (Netobs.Metrics.snapshot_to_json snap))
    else Netobs.Metrics.pp_snapshot out_fmt snap
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a reference workload and print a metrics snapshot (engine \
             gauges, per-cell flow-latency histograms)")
    Term.(const run $ json)

(* ---- soak ---- *)

let soak_cmd =
  let seeds =
    Arg.(
      value & opt string "0..4"
      & info [ "seeds" ] ~docv:"A..B"
          ~doc:"Inclusive seed range to sweep (e.g. 0..19)")
  in
  let profile =
    Arg.(
      value
      & opt (enum [ ("gentle", `Gentle); ("harsh", `Harsh) ]) `Gentle
      & info [ "profile" ]
          ~doc:
            "Base fault profile: $(b,gentle) (CI smoke; a healthy tree stays \
             clean) or $(b,harsh) (E17: outages that exhaust the renewal \
             budget)")
  in
  let budget =
    Arg.(
      value & opt (some string) None
      & info [ "budget" ] ~docv:"K=V,..."
          ~doc:
            "Override profile fields: events, horizon, max-window, outages \
             (colon-separated seconds), renewals, retries, lifetime \
             (e.g. events=8,outages=12:16,renewals=3)")
  in
  let cells =
    Arg.(
      value & opt (some string) None
      & info [ "cells" ] ~docv:"CELLS"
          ~doc:
            "Comma-separated grid cells (default In-IE/Out-IE,\
             In-DE/Out-DE,In-DH/Out-DH)")
  in
  let fault_json =
    Arg.(
      value & opt (some file) None
      & info [ "fault-json" ] ~docv:"FILE"
          ~doc:
            "Replay one fault plan (a repro written by a previous soak, or \
             any plan JSON) instead of sweeping")
  in
  let repro_dir =
    Arg.(
      value & opt string "."
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Where shrunken repro JSON files are written")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report violations without delta-debugging")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON instead of text")
  in
  let parse_seeds s =
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i > 0
           && i + 2 < String.length s -> (
        let lo = String.sub s 0 i in
        let hi = String.sub s (i + 2) (String.length s - i - 2) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo <= hi -> Ok (lo, hi)
        | _ -> Error (Printf.sprintf "--seeds: bad range %S" s))
    | _ -> Error (Printf.sprintf "--seeds: expected A..B, got %S" s)
  in
  let parse_budget base s =
    let apply p kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "--budget: expected K=V, got %S" kv)
      | Some i -> (
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          let int_field f = Option.map f (int_of_string_opt v) in
          let float_field f = Option.map f (float_of_string_opt v) in
          let r =
            match k with
            | "events" -> int_field (fun n -> { p with Experiments.Soak.events = n })
            | "horizon" -> float_field (fun x -> { p with Experiments.Soak.horizon = x })
            | "max-window" ->
                float_field (fun x -> { p with Experiments.Soak.max_window = x })
            | "outages" ->
                let parts = String.split_on_char ':' v in
                let ds =
                  List.filter_map
                    (fun s ->
                      match float_of_string_opt s with
                      | Some d when Float.is_finite d && d >= 0.0 -> Some d
                      | _ -> None)
                    parts
                in
                if List.length ds = List.length parts && ds <> [] then
                  Some { p with Experiments.Soak.outages = ds }
                else None
            | "renewals" ->
                int_field (fun n -> { p with Experiments.Soak.max_renewals = n })
            | "retries" ->
                int_field (fun n -> { p with Experiments.Soak.retry_limit = n })
            | "lifetime" ->
                int_field (fun n -> { p with Experiments.Soak.mh_lifetime = n })
            | _ -> None
          in
          match r with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "--budget: bad field %S" kv))
    in
    List.fold_left
      (fun acc kv -> Result.bind acc (fun p -> apply p kv))
      (Ok base)
      (String.split_on_char ',' s)
  in
  let parse_cells s =
    let names = String.split_on_char ',' s in
    let cells = List.filter_map Experiments.Soak.cell_of_string names in
    if List.length cells = List.length names && cells <> [] then Ok cells
    else Error (Printf.sprintf "--cells: bad cell list %S" s)
  in
  let cell_name c = Mobileip.Grid.cell_to_string c in
  let repro_path dir seed cell =
    Filename.concat dir
      (Printf.sprintf "repro-s%d-%s.json" seed
         (String.map (fun c -> if c = '/' then '_' else c) (cell_name cell)))
  in
  let finding_json (path, trace_path, pcap_path) (f : Experiments.Soak.finding)
      =
    Netsim.Json.Obj
      [
        ("seed", Netsim.Json.Int f.Experiments.Soak.f_seed);
        ("cell", Netsim.Json.String (cell_name f.Experiments.Soak.f_cell));
        ( "invariants",
          Netsim.Json.List
            (List.map
               (fun n -> Netsim.Json.String n)
               (Experiments.Soak.violated_names f.Experiments.Soak.f_outcome))
        );
        ( "events",
          Netsim.Json.Int
            (List.length f.Experiments.Soak.f_plan.Netsim.Fault.events) );
        ( "shrunk_events",
          Netsim.Json.Int
            (List.length f.Experiments.Soak.f_shrunk.Netsim.Fault.events) );
        ("replays", Netsim.Json.Int f.Experiments.Soak.f_replays);
        ("repro", Netsim.Json.String path);
        ("trace", Netsim.Json.String trace_path);
        ("pcap", Netsim.Json.String pcap_path);
      ]
  in
  (* The flight-recorder tail of a violating run, as trace JSONL and as a
     pcap, next to the repro: a shrunken plan arrives with its capture. *)
  let write_finding_artifacts path (f : Experiments.Soak.finding) =
    let tail = f.Experiments.Soak.f_outcome.Experiments.Soak.recorder_tail in
    let base = Filename.remove_extension path in
    let trace_path = base ^ ".trace.jsonl" in
    let oc = open_out trace_path in
    List.iter
      (fun r ->
        output_string oc (Netobs.Export.line_of_record r);
        output_char oc '\n')
      tail;
    close_out oc;
    let pcap_path = base ^ ".pcap" in
    ignore (Netobs.Pcap.write_file pcap_path tail);
    (path, trace_path, pcap_path)
  in
  let run seeds profile budget cells fault_json repro_dir no_shrink json pcap =
    let profile =
      match profile with
      | `Gentle -> Experiments.Soak.gentle
      | `Harsh -> Experiments.Soak.harsh
    in
    let ( let* ) = Result.bind in
    let result () =
      let* profile =
        match budget with
        | None -> Ok profile
        | Some s -> parse_budget profile s
      in
      match fault_json with
      | Some file ->
          (* Replay mode: one plan, no sweep, no shrink. *)
          let text =
            let ic = open_in file in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          in
          let* plan, seed, cell = Experiments.Soak.repro_of_string text in
          let seed = Option.value seed ~default:0 in
          let cell =
            Option.value cell
              ~default:(List.hd Experiments.Soak.default_cells)
          in
          let outcome = Experiments.Soak.replay ~profile ~cell ~seed plan in
          Format.printf "replay %s: seed %d, cell %s, %d events@." file seed
            (cell_name cell)
            (List.length plan.Netsim.Fault.events);
          List.iter
            (fun v -> Format.printf "  VIOLATION %a@." Netsim.Invariant.pp_violation v)
            outcome.Experiments.Soak.violations;
          if outcome.Experiments.Soak.violations = [] then
            Format.printf "  no violations@.";
          Ok (outcome.Experiments.Soak.violations <> [])
      | None ->
          let* lo, hi = parse_seeds seeds in
          let* cells =
            match cells with
            | None -> Ok Experiments.Soak.default_cells
            | Some s -> parse_cells s
          in
          let report =
            Experiments.Soak.run ~profile ~seed_lo:lo ~seed_hi:hi ~cells
              ~shrink:(not no_shrink) ()
          in
          if report.Experiments.Soak.findings <> [] then begin
            if not (Sys.file_exists repro_dir) then Sys.mkdir repro_dir 0o755
          end;
          let paths =
            List.map
              (fun (f : Experiments.Soak.finding) ->
                let path =
                  repro_path repro_dir f.Experiments.Soak.f_seed
                    f.Experiments.Soak.f_cell
                in
                let oc = open_out path in
                output_string oc
                  (Experiments.Soak.repro_to_string
                     ~seed:f.Experiments.Soak.f_seed
                     ~cell:f.Experiments.Soak.f_cell
                     f.Experiments.Soak.f_shrunk);
                output_char oc '\n';
                close_out oc;
                write_finding_artifacts path f)
              report.Experiments.Soak.findings
          in
          (* The run's metrics, tcp_retx_aborted_total among them. *)
          let reg = Netobs.Metrics.create () in
          let count name help v =
            Netobs.Metrics.incr ~by:v (Netobs.Metrics.counter reg ~help name)
          in
          count "soak_runs_total" "seed x cell runs executed"
            report.Experiments.Soak.runs;
          count "soak_checks_total" "invariant checks evaluated"
            report.Experiments.Soak.total_checks;
          count "soak_violations_total" "runs that violated an invariant"
            (List.length report.Experiments.Soak.findings);
          count "tcp_retx_aborted_total"
            "connections that exhausted their retransmission limit"
            report.Experiments.Soak.total_retx_aborts;
          if json then
            print_endline
              (Netsim.Json.to_string
                 (Netsim.Json.Obj
                    [
                      ( "seeds",
                        Netsim.Json.List
                          [ Netsim.Json.Int lo; Netsim.Json.Int hi ] );
                      ( "cells",
                        Netsim.Json.List
                          (List.map
                             (fun c -> Netsim.Json.String (cell_name c))
                             cells) );
                      ("runs", Netsim.Json.Int report.Experiments.Soak.runs);
                      ( "findings",
                        Netsim.Json.List
                          (List.map2 finding_json paths
                             report.Experiments.Soak.findings) );
                      ( "metrics",
                        Netobs.Metrics.snapshot_to_json
                          (Netobs.Metrics.snapshot reg) );
                    ]))
          else begin
            Format.printf
              "soak: seeds %d..%d, %d runs, %d invariant checks, %d \
               violation(s)@."
              lo hi report.Experiments.Soak.runs
              report.Experiments.Soak.total_checks
              (List.length report.Experiments.Soak.findings);
            List.iter2
              (fun (path, trace_path, pcap_path)
                   (f : Experiments.Soak.finding) ->
                Format.printf
                  "  seed %d cell %s: %s (%d events -> %d, %d replays) \
                   repro: %s tail: %s pcap: %s@."
                  f.Experiments.Soak.f_seed
                  (cell_name f.Experiments.Soak.f_cell)
                  (String.concat " "
                     (Experiments.Soak.violated_names
                        f.Experiments.Soak.f_outcome))
                  (List.length f.Experiments.Soak.f_plan.Netsim.Fault.events)
                  (List.length f.Experiments.Soak.f_shrunk.Netsim.Fault.events)
                  f.Experiments.Soak.f_replays path trace_path pcap_path)
              paths report.Experiments.Soak.findings;
            Netobs.Metrics.pp_snapshot out_fmt (Netobs.Metrics.snapshot reg)
          end;
          Ok (report.Experiments.Soak.findings <> [])
    in
    (* The pcap tap is torn down (and its channel closed) before the
       violation exit code is raised. *)
    match with_pcap_stream pcap (fun () -> `Done (result ())) with
    | `Error _ as e -> e
    | `Done (Error e) -> `Error (false, e)
    | `Done (Ok violated) ->
        if violated then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Sweep seeded random fault plans under the invariant oracle; \
          shrink and save a JSON repro for every violation (exit 1 if any)")
    Term.(
      ret
        (const run $ seeds $ profile $ budget $ cells $ fault_json $ repro_dir
       $ no_shrink $ json $ pcap_arg))

(* ---- profile ---- *)

let profile_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the profile as JSON instead of a table")
  in
  let run json =
    (* The E20/E18 capacity workload under the hot-path profiler: the
       per-subsystem self/total table the scale-out work steers by. *)
    Netsim.Prof.reset ();
    Netsim.Prof.set_enabled true;
    let stats =
      Experiments.E20_obs_overhead.run_once ~install:(fun _ () -> ()) ()
    in
    Netsim.Prof.set_enabled false;
    let entries = Netsim.Prof.snapshot () in
    if json then
      print_endline (Netsim.Json.to_string (Netobs.Profile.to_json entries))
    else begin
      Format.printf
        "workload: %d concurrent flows, %d/%d datagrams delivered, %.1f ms \
         wall (timings inflated by the profiler's own clock reads)@."
        Experiments.E20_obs_overhead.flows
        stats.Experiments.E20_obs_overhead.delivered
        stats.Experiments.E20_obs_overhead.expected
        (stats.Experiments.E20_obs_overhead.wall *. 1e3);
      Netobs.Profile.pp out_fmt entries
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the capacity workload under the hot-path profiler and print \
          per-subsystem self/total wall-clock time")
    Term.(const run $ json)

let list_cmd =
  let run () =
    Format.printf "experiments:@.";
    List.iter
      (fun (id, doc, _) -> Format.printf "  %-5s %s@." id doc)
      Experiments.Registry.all;
    Format.printf "scenarios:@.";
    List.iter (fun (n, doc, _) -> Format.printf "  %-14s %s@." n doc) scenarios
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiments and scenarios")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "mobility4x4" ~version:"1.0.0"
      ~doc:"Internet Mobility 4x4 (Cheshire & Baker, SIGCOMM '96) in simulation"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ grid_cmd; best_cmd; experiments_cmd; scenario_cmd; stats_cmd;
            soak_cmd; profile_cmd; rules_cmd; list_cmd ]))
