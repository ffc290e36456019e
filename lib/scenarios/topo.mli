(** The paper's recurring topologies, parameterised.

    The standard world has three stub domains joined by a chain of backbone
    routers:

    {v
      home domain (36.1/16)        backbone           visited (131.7/16)
      [ha][servers]--(hr)--(b0)--(b1)-..-(bn)--(vr)--[visited segment][mh]
                              |
                            (cr)  correspondent domain (44.2/16) [ch]
    v}

    - Figures 1-3: the correspondent far from the mobile host
      ([ch_position = Inside_home] for the exact Figure 2 filtering story,
      or [Remote]).
    - Figures 4-5: [Near_visited] — the correspondent one hop from the
      visited network while home is many hops away.
    - Row C: [On_visited_segment] — correspondent and mobile host share a
      link.

    Filtering knobs reproduce §3.1: ingress source-address filtering at the
    home boundary, transit prohibition at the visited boundary, and a
    firewall home boundary that admits only tunnels to the home agent
    (optionally hosting the home agent itself). *)

type ch_position =
  | Inside_home  (** on the home segment, like Figure 2's correspondent *)
  | Remote  (** own domain hanging off the middle of the backbone *)
  | Near_visited  (** own domain one backbone hop from the visited domain *)
  | On_visited_segment  (** same Ethernet segment as the mobile host *)

type filtering = {
  home_ingress : bool;
      (** boundary router drops outside packets claiming inside sources *)
  visited_no_transit : bool;
      (** visited boundary drops packets sourced from foreign addresses *)
  home_firewall : bool;
      (** home boundary admits only tunnels to the home agent from outside *)
}

val no_filtering : filtering
val ingress_only : filtering
val strict : filtering
(** Both ingress filtering at home and transit prohibition at the visited
    network — the world where only Out-IE works toward a conventional CH. *)

type t = {
  net : Netsim.Net.t;
  (* home domain *)
  home_prefix : Netsim.Ipv4_addr.Prefix.t;
  home_segment : Netsim.Net.segment;
  home_router : Netsim.Net.node;
  ha : Mobileip.Home_agent.t;
  ha_standby : Mobileip.Home_agent.t option;
  (* visited domain *)
  visited_prefix : Netsim.Ipv4_addr.Prefix.t;
  visited_segment : Netsim.Net.segment;
  visited_router : Netsim.Net.node;
  dhcp : Transport.Dhcp.Server.t;
  (* correspondent *)
  ch_node : Netsim.Net.node;
  ch : Mobileip.Correspondent.t;
  ch_addr : Netsim.Ipv4_addr.t;
  (* the mobile host, initially at home *)
  mh_node : Netsim.Net.node;
  mh : Mobileip.Mobile_host.t;
  mh_home_addr : Netsim.Ipv4_addr.t;
  (* misc *)
  backbone : Netsim.Net.node list;
  dns_node : Netsim.Net.node option;
  dns : Mobileip.Dns_ext.Server.t option;
  dns_addr : Netsim.Ipv4_addr.t option;
  cellular_segment : Netsim.Net.segment option;
  cellular_router : Netsim.Net.node option;
}

val build :
  ?backbone_hops:int ->
  ?ch_position:ch_position ->
  ?filtering:filtering ->
  ?ch_capability:Mobileip.Correspondent.capability ->
  ?notify_correspondents:bool ->
  ?with_dns:bool ->
  ?encap:Mobileip.Encap.mode ->
  ?link_latency:float ->
  ?with_cellular:bool ->
  ?mh_lifetime:int ->
  ?mh_retry_base:float ->
  ?mh_retry_cap:float ->
  ?mh_retry_limit:int ->
  ?with_standby_ha:bool ->
  ?standby_detect_interval:float ->
  ?standby_detect_timeout:float ->
  unit ->
  t
(** Build the world.  Defaults: 4 backbone hops, [Remote] correspondent,
    no filtering, conventional correspondent, no ICMP notifications, no
    DNS server, IP-in-IP, 10 ms backbone links, registration lifetime
    300 s ([?mh_lifetime] — churn experiments shorten it so expiry and
    renewal happen within the run).  The registration backoff knobs
    ([?mh_retry_base], [?mh_retry_cap], [?mh_retry_limit]) pass through to
    {!Mobileip.Mobile_host.create} — chaos runs tighten them so a
    registration against a partitioned home agent gives up within the
    fault window rather than after it.  The mobile host starts at home
    and is not yet registered anywhere.

    [?with_cellular] adds a second way onto the Internet near the visited
    domain: a cellular-telephone-style attachment (paper §1's "cellular
    telephone and modem ... at about 40 cents per minute") — a segment
    behind a 150 ms, 9600 bit/s, slightly lossy access link, with its own
    DHCP service in 166.4.0.0/16.  Move the MH there with
    {!roam_cellular}.

    [?with_standby_ha] (default false) adds a second home agent "ha2" at
    36.1.0.4 on the home segment, paired as a hot standby of [ha] via
    {!Mobileip.Home_agent.pair} with the given detection interval
    (default 2 s) and timeout (default 5 s).  Its liveness poll starts at
    build time and runs for the world's whole life. *)

val roam : t -> ?on_registered:(bool -> unit) -> unit -> unit
(** Move the mobile host to the visited segment (DHCP attachment) and
    register; run the network until the registration completes. *)

val roam_static : t -> ?on_registered:(bool -> unit) -> unit -> unit
(** Like {!roam} but with a statically assigned care-of address, avoiding
    the DHCP exchange (useful when traces must stay minimal). *)

val roam_cellular : t -> ?on_registered:(bool -> unit) -> unit -> unit
(** Move the mobile host to the cellular attachment (requires
    [~with_cellular:true] at build time).
    @raise Invalid_argument otherwise. *)

val come_home : t -> unit
(** Return the mobile host to the home segment and deregister; runs the
    network until complete. *)

val run : t -> unit
(** {!Netsim.Net.run}: run until only background events (the purge, the
    standby's poll) remain. *)

(** {1 Chaos targets}

    A world described in the vocabulary of {!Netsim.Chaos.budget}: which
    names the fault layer can aim at.  The names depend on the backbone
    depth alone, so both lists are computed from [~backbone_hops] without
    building the world; a budget built from them is as replayable as the
    world itself. *)

val chaos_links : backbone_hops:int -> string list
(** Every interesting link of a [build ~backbone_hops] world by the name
    the fault hook sees it under: the home and visited segments, the two
    access links, and the backbone chain links. *)

val chaos_cuts : backbone_hops:int -> (string list * string list) list
(** Candidate partition cuts (node-name sets) of a [build ~backbone_hops]
    world: isolate the home domain, isolate the visited domain, split the
    backbone down the middle. *)
