(* E13 — §6 / abstract: the "series of tests" that picks the best cell for
   each environment, validated live: for each named environment we build a
   matching world, let the grid choose, run a conversation over the chosen
   cell and confirm it delivers with consistent endpoints. *)

open Mobileip

(* Nothing reads [ch_capability] yet: [run_case] builds every world with a
   mobile-aware correspondent.  Building each case with the capability it
   names moves E13's pinned output, so it waits for ROADMAP item 4, and
   warning 69 is off for this one type until then. *)
type env_case = {
  name : string;
  env : Grid.environment;
  ch_position : Scenarios.Topo.ch_position;
  filtering : Scenarios.Topo.filtering;
  ch_capability : Correspondent.capability;
}
[@@warning "-69"]

let base = Grid.default_environment

let cases =
  [
    {
      name = "web page fetch (no durability needed)";
      env = { base with Grid.mobility_required = false };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.no_filtering;
      ch_capability = Correspondent.Conventional;
    };
    {
      name = "privacy-sensitive session";
      env = { base with Grid.privacy_required = true };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.no_filtering;
      ch_capability = Correspondent.Conventional;
    };
    {
      name = "visiting another institution's server";
      env = { base with Grid.same_segment = true };
      ch_position = Scenarios.Topo.On_visited_segment;
      filtering = Scenarios.Topo.no_filtering;
      ch_capability = Correspondent.Mobile_aware;
    };
    {
      name = "conventional server, strict filters";
      env = base;
      ch_position = Scenarios.Topo.Inside_home;
      filtering = Scenarios.Topo.ingress_only;
      ch_capability = Correspondent.Conventional;
    };
    {
      name = "conventional server, open path";
      env = { base with Grid.source_filtering_on_path = false };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.no_filtering;
      ch_capability = Correspondent.Conventional;
    };
    {
      name = "decap-capable server, filters";
      env = { base with Grid.ch_decapsulates = true };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.strict;
      ch_capability = Correspondent.Decap_capable;
    };
    {
      name = "mobile-aware peer, open path";
      env =
        {
          base with
          Grid.ch_mobile_aware = true;
          ch_knows_care_of = true;
          ch_decapsulates = true;
          source_filtering_on_path = false;
        };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.no_filtering;
      ch_capability = Correspondent.Mobile_aware;
    };
    {
      name = "mobile-aware peer, filters";
      env =
        {
          base with
          Grid.ch_mobile_aware = true;
          ch_knows_care_of = true;
          ch_decapsulates = true;
        };
      ch_position = Scenarios.Topo.Remote;
      filtering = Scenarios.Topo.strict;
      ch_capability = Correspondent.Mobile_aware;
    };
  ]

let run_case case =
  let cell = Grid.best case.env in
  (* Conversation.run_udp forces methods on a mobile-aware correspondent
     object, whatever the modeled capability. *)
  let topo =
    Scenarios.Topo.build ~ch_position:case.ch_position
      ~filtering:case.filtering ~ch_capability:Correspondent.Mobile_aware ()
  in
  Scenarios.Topo.roam topo ();
  Netsim.Trace.clear (Netsim.Net.trace topo.Scenarios.Topo.net);
  let r =
    Conversation.run_udp ~net:topo.Scenarios.Topo.net
      ~mh:topo.Scenarios.Topo.mh ~ch:topo.Scenarios.Topo.ch
      ~ch_addr:topo.Scenarios.Topo.ch_addr ~cell ()
  in
  let works =
    r.Conversation.requests_delivered = r.Conversation.requests_sent
    && r.Conversation.replies_delivered = r.Conversation.replies_sent
    && r.Conversation.transport_consistent
  in
  [
    case.name;
    Grid.cell_to_string cell;
    (if works then "yes" else "NO");
    Printf.sprintf "%d/%d" r.Conversation.request_hops r.Conversation.reply_hops;
  ]

let run () =
  {
    Table.id = "E13";
    title = "Section 6 - the series of tests, validated live";
    paper_claim =
      "a mobile host can determine, through a series of tests, which of \
       the currently available optimizations is best for any given \
       correspondent host";
    columns = [ "situation"; "chosen cell"; "works live"; "hops req/rep" ];
    rows = List.map run_case cases;
    notes =
      [
        "each row builds a world matching the situation, lets the grid \
         choose, and runs a real exchange over the chosen cell";
      ];
  }
