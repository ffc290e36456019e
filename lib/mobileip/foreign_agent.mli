(** An IETF-style foreign agent (paper §2, §5).

    "When connecting via a foreign agent, the home agent tunnels packets to
    this foreign agent, which decapsulates them and delivers the enclosed
    packet to the mobile host" — using In-DH for the final hop.

    The agent:

    - periodically broadcasts agent advertisements on its segment (UDP
      port 435) so arriving mobile hosts can find it;
    - relays registration requests from visiting mobile hosts to the home
      agent named inside the request (reading only unauthenticated fields;
      the MH-HA authenticator passes through untouched), and relays the
      reply back to the visitor in a single link-layer hop;
    - keeps a visitor list (home address → MAC) for accepted
      registrations;
    - decapsulates tunnels addressed to itself whose inner destination is
      a visitor, delivering the inner packet link-layer-direct (In-DH).

    The node hosting the agent should be a router: it is also the
    visitors' first-hop gateway for outgoing traffic. *)

type t

val advert_port : int
(** 435. *)

val create :
  Netsim.Net.node ->
  iface:Netsim.Net.iface ->
  ?advert_interval:float ->
  ?advertise:bool ->
  ?advert_count:int ->
  unit ->
  t
(** [iface] is the interface on the visited segment.  Advertisements are
    broadcast every [advert_interval] seconds (default 5 s) when
    [advertise] (default true), at most [advert_count] times beyond the
    first (default 12; raise it for long-running worlds).  The count stays
    a budget: each advertisement is a broadcast that every host on the
    segment receives and the trace records, so the number sent is part
    of what an experiment observes, not background housekeeping. *)

val visitors : t -> (Netsim.Ipv4_addr.t * Netsim.Mac_addr.t) list
val packets_delivered : t -> int
(** Final-hop In-DH deliveries of decapsulated packets. *)

val registrations_relayed : t -> int

(** {1 Crash and restart}

    The visitor list and pending-relay table are soft state: a crash loses
    both, and while down the agent neither relays registrations, delivers
    tunnels, nor beacons.  Visitors must re-register after a restart. *)

val crash : t -> unit
val restart : t -> unit
val is_up : t -> bool

val on_advert :
  Netsim.Net.node -> (fa_addr:Netsim.Ipv4_addr.t -> unit) -> unit
(** Client side: listen (once) for the next agent advertisement on the
    node's segment. *)

val advert_agent_address : Bytes.t -> Netsim.Ipv4_addr.t option
(** Parse an advertisement payload (the mobile host's auto-attach listener
    uses this to examine every advertisement it hears). *)
