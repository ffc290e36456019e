let all =
  [
    ("E1", "Figure 1: basic Mobile IP asymmetric paths", E01_basic_mobile_ip.run);
    ("E2", "Figure 2: source-address filtering", E02_source_filtering.run);
    ("E3", "Figure 3: bi-directional tunneling", E03_bidirectional_tunneling.run);
    ("E4", "Figure 4: triangle-routing penalty", E04_triangle_routing.run);
    ("E5", "Figure 5: smart correspondent", E05_smart_correspondent.run);
    ("E6", "Figures 6/7: outgoing packet formats", E06_outgoing_formats.run);
    ("E7", "Figures 8/9: incoming packet formats", E07_incoming_formats.run);
    ("E8", "Figure 10: the 4x4 grid, live", E08_grid.run);
    ("E9", "Section 3.3: MTU and fragmentation", E09_mtu_fragmentation.run);
    ("E10", "Section 7.1.2: selection strategies", E10_selection_strategies.run);
    ("E11", "Section 3.2: care-of discovery", E11_discovery.run);
    ("E12", "Section 6.4: multicast membership", E12_multicast.run);
    ("E13", "Section 6: the series of tests", E13_best_choice.run);
    ("E14", "Section 2: connection durability", E14_durability.run);
    ("E15", "Section 3.2: load on shared Internet resources",
     E15_internet_load.run);
    ("E16", "Handover churn under fault injection", E16_handover_churn.run);
    ("E17", "Chaos soak under the invariant oracle", E17_chaos_soak.run);
    ("E18", "Simulator capacity: packets/sec under concurrent load",
     E18_sim_capacity.run);
    ("E19", "Failure signaling and home-agent failover", E19_failover.run);
    ("E20", "Observability overhead: recorder / JSONL / pcap ladder",
     E20_obs_overhead.run);
    ("A1", "Section 4 ablation: source routing vs encapsulation",
     A01_source_routing.run);
    ("A2", "Sections 2/3.3 ablation: encapsulation formats",
     A02_encap_modes.run);
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_map (fun (i, _, f) -> if i = id then Some f else None) all

let run_all fmt =
  List.iter
    (fun (_, _, f) ->
      let table = f () in
      Table.render fmt table)
    all

let run_one fmt id =
  match find id with
  | None -> false
  | Some f ->
      Table.render fmt (f ());
      true
