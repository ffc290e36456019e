(** The mobile host's Mobile IP software (paper §2, §7).

    Mirrors the paper's Linux implementation structure: "we override the IP
    route lookup routine and replace it with a routine that consults a
    mobility policy table before the usual route table" — here, a
    {!Netsim.Net.set_route_override} hook that decides, per outgoing packet,
    which of the four Out-* methods applies, encapsulating and resubmitting
    through a virtual interface when needed.

    Self-sufficiency is emphasised as in the paper: the mobile host attaches
    directly to visited networks (via DHCP or static assignment) and needs
    no foreign agent, though it can also use one ({!Foreign_agent}).

    Decision machinery, in priority order, for packets sourced from the
    home address (or unbound):

    + a per-destination pinned method (explicit API or experiment control);
    + the adaptive {!Selector}, when installed;
    + port heuristics for unbound sockets (§7.1.1): e.g. TCP port 80 and
      UDP port 53 may safely forgo Mobile IP and use Out-DT;
    + privacy mode forces Out-IE (§4);
    + the default method.

    Packets explicitly sourced from the care-of address bypass Mobile IP
    entirely (Out-DT, §7.1.1's bind-to-physical-interface convention). *)

type t

type location =
  | At_home
  | Away of { care_of : Netsim.Ipv4_addr.t; gateway : Netsim.Ipv4_addr.t }

val create :
  Netsim.Net.node ->
  iface:Netsim.Net.iface ->
  home:Netsim.Ipv4_addr.t ->
  home_prefix:Netsim.Ipv4_addr.Prefix.t ->
  home_agent:Netsim.Ipv4_addr.t ->
  ?auth_key:string ->
  ?encap:Encap.mode ->
  ?lifetime:int ->
  ?retry_base:float ->
  ?retry_cap:float ->
  ?retry_limit:int ->
  unit ->
  t
(** Wrap a node (assumed currently attached to its home network with
    [home] as the interface address).  Defaults: key ["secret"], IP-in-IP,
    requested registration lifetime 300 s.

    Registration requests are retransmitted with bounded exponential
    backoff: transmission [n] is followed, if unanswered, by a wait of
    [min retry_cap (retry_base *. 2.**n)] scaled by a seeded jitter factor
    in [1, 1.25) (so co-moving hosts do not retransmit in lockstep, and
    identical seeds replay identically).  After [retry_limit]
    transmissions the registration fails: the host marks itself
    unregistered, reports failure to the movement callback, and withdraws
    any binding updates it sent by advertising a zero lifetime to those
    correspondents.  Defaults: base 1 s, cap 8 s, 6 transmissions.  The
    jitter generator's seed is [0x2b5d].
    @raise Invalid_argument unless [0 < retry_base <= retry_cap] and
    [retry_limit >= 1]. *)

val retry_delay : t -> int -> float
(** The backoff delay that would follow transmission [n] — draws (and
    advances) the host's jitter stream; exposed for tests and
    experiments. *)

val node : t -> Netsim.Net.node
val home_address : t -> Netsim.Ipv4_addr.t
val care_of_address : t -> Netsim.Ipv4_addr.t option
val at_home : t -> bool
val registered : t -> bool

(** {1 Movement} *)

val move_to_static :
  t ->
  Netsim.Net.segment ->
  addr:Netsim.Ipv4_addr.t ->
  prefix:Netsim.Ipv4_addr.Prefix.t ->
  gateway:Netsim.Ipv4_addr.t ->
  ?on_registered:(bool -> unit) ->
  unit ->
  unit
(** Detach from the current network, attach to the segment with a
    statically assigned care-of address (the "friendly network
    administrator" case), and register with the home agent.  The callback
    reports this registration's outcome; with the keepalive on, a failed
    one is retried on the renewal backoff ({!enable_keepalive}). *)

val move_to_dhcp :
  t -> Netsim.Net.segment -> ?on_registered:(bool -> unit) -> unit -> unit
(** Like {!move_to_static} but the care-of address, prefix and gateway come
    from a DHCP exchange on the visited segment. *)

val enable_auto_attach : t -> unit
(** Eager movement detection: listen for agent advertisements
    ({!Foreign_agent.advert_port}) on the interface.  When an
    advertisement arrives from an agent that is not our current first-hop
    gateway, the link has evidently changed under us — re-attach via DHCP
    and re-register, with no explicit [move_to_*] call.  (The physical
    event — plugging into a different segment — is
    {!Netsim.Net.reattach}; this feature makes the mobility software
    notice on its own.) *)

val disable_auto_attach : t -> unit
val auto_attaches : t -> int
(** How many times auto-attachment has re-registered the host. *)

val move_to_foreign_agent :
  t ->
  Netsim.Net.segment ->
  fa_addr:Netsim.Ipv4_addr.t ->
  ?on_registered:(bool -> unit) ->
  unit ->
  unit
(** Attach via a {!Foreign_agent} on the segment: the MH keeps its home
    address, registers through the FA (care-of = the FA's address), and
    routes outgoing traffic through it.  As the paper notes, foreign agents
    "restrict the freedom of the mobile host to choose from the full range
    of possible optimizations": while in this mode the per-packet method
    machinery is off and packets go out plain (Out-DH). *)

val via_foreign_agent : t -> bool

val return_home : t -> Netsim.Net.segment -> unit -> unit
(** Reattach to the home segment with the home address, broadcast a
    gratuitous ARP to reclaim traffic from the home agent, and deregister
    (a registration with lifetime zero). *)

val reregister : t -> ?on_registered:(bool -> unit) -> unit -> unit
(** Refresh the current binding before its lifetime expires. *)

val enable_keepalive : t -> ?margin:float -> ?max_renewals:int -> unit -> unit
(** Automatically re-register [margin] seconds (default 30) before each
    binding expiry, up to [max_renewals] times (default 10; raise it for
    long-running worlds).  The budget bounds real traffic: each renewal,
    and each retry after a failed one, is a registration exchange on the
    wire, and how many the host may spend is an experiment's knob (the
    harsh soak profile allows 3, so a host can give up).  Renewal timers
    self-cancel when the host moves.  A renewal, or a move's registration
    ([move_to_*], DHCP attachment), that fails outright (home agent down,
    path cut) does not end the chain: the host keeps retrying on the
    backoff schedule, spending renewal budget, until the agent answers or
    the budget runs out. *)

(** {1 Method selection} *)

val set_default_method : t -> Grid.out_method -> unit
(** Method used when nothing more specific decides (initial default:
    [Out_IE], the only method that always works). *)

val pin_method : t -> dst:Netsim.Ipv4_addr.t -> Grid.out_method option -> unit
(** Force (or clear) the method for one destination — the per-destination
    cache of §7.1.2, under experiment control. *)

val out_method_for : t -> dst:Netsim.Ipv4_addr.t -> Grid.out_method
(** What the next home-sourced packet to [dst] would use (ignoring
    heuristics, which also need a port). *)

val set_selector : t -> Selector.t option -> unit
(** Install the adaptive selector; also wires the node's TCP
    retransmission feedback into it. *)

val selector : t -> Selector.t option

val set_privacy : t -> bool -> unit
(** Privacy mode: send everything via the home agent so correspondents
    cannot learn the current location (§4, Out-IE motivation). *)

val privacy : t -> bool

val set_degradation : t -> Grid.out_method option -> unit
(** Degradation policy: when a registration away from home finally fails
    (retry budget exhausted, no confirmed binding), fall back to this
    direct method — [Out_DH] (home source, works where no source filter
    blocks it) or [Out_DT] (care-of source, always deliverable but
    breaks connection survival) — instead of black-holing on a tunnel no
    agent terminates.  The fallback stays in force until a registration
    succeeds again.  [None] (the default) keeps the seed behaviour.
    @raise Invalid_argument for [Out_IE]/[Out_DE]: encapsulating methods
    need exactly the infrastructure whose loss triggers degradation. *)

val degraded : t -> bool
(** Whether the degradation fallback is currently in force (a registration
    failed for good and none has succeeded since). *)

val icmp_errors_consumed : t -> int
(** Destination-unreachable errors consumed as negative feedback. *)

type heuristic = Netsim.Ipv4_packet.t -> bool
(** Applied to unbound outgoing packets; [true] means "safe to forgo
    Mobile IP for this packet" (Out-DT). *)

val http_dns_heuristic : heuristic
(** The paper's example: TCP to port 80, or UDP to port 53. *)

val set_heuristics : t -> heuristic list -> unit

val choose_source :
  t -> ?tcp_port:int -> unit -> Netsim.Ipv4_addr.t
(** The address a mobile-aware application (or TCP at connect time, §7)
    should bind: the care-of address when Mobile IP is unnecessary for this
    conversation (at home it is simply the home address; away, heuristics
    on [?tcp_port] may pick the care-of address), otherwise the home
    address. *)

val send_binding_update :
  t -> correspondent:Netsim.Ipv4_addr.t -> unit -> bool
(** Route optimization in the style the paper cites as [Joh96]: the mobile
    host itself tells a (mobile-aware) correspondent its current care-of
    address, without waiting for the home agent's ICMP advertisement.  The
    update is the same ICMP care-of-advertisement message, sent Out-DT
    (from the care-of address — it must be deliverable even under source
    filtering), with a 300 s lifetime.  Returns false when at home (nothing
    to advertise). *)

(** {1 Statistics} *)

val packets_encapsulated : t -> int
(** Out-IE/Out-DE wraps performed. *)

val packets_decapsulated : t -> int
(** Tunnel packets unwrapped on arrival (In-IE / In-DE receive path). *)

val registration_attempts : t -> int

val registration_failures : t -> int
(** Registrations abandoned after exhausting the retry budget. *)

val last_registration_failure : t -> float option
(** Simulation time of the most recent abandonment — raw material for the
    invariant oracle's withdrawal check. *)
