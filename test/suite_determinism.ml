(* Run-to-run determinism: the same scenario built twice in one process
   must replay record for record. This catches global state (frame and
   flow ids, sequence counters, caches) leaking from one world into the
   next; the golden-output test pins the bytes across processes. *)

open Netsim

(* Only the static roam is checked: [Mac_addr] draws from a process-wide
   counter, so a second world hands out different MACs and the DHCP
   exchange (keyed by client hardware address) differs between runs. *)
let replay roam =
  let w = Scenarios.Topo.build () in
  roam w;
  Scenarios.Topo.come_home w;
  Scenarios.Topo.run w;
  Trace.records (Net.trace w.Scenarios.Topo.net)

let check_replays roam () =
  let first = replay roam in
  let second = replay roam in
  Alcotest.(check bool) "trace non-empty" true (first <> []);
  Alcotest.(check int) "same record count" (List.length first)
    (List.length second);
  Alcotest.(check bool) "identical records" true (first = second)

let suites =
  [
    ( "trace.determinism",
      [
        Alcotest.test_case "static roam replays exactly" `Quick
          (check_replays (fun w -> Scenarios.Topo.roam_static w ()));
      ] );
  ]
