(** The home agent (paper §2): "a machine on the mobile host's home network
    that acts as a proxy on behalf of the mobile host for the duration of
    its absence".

    Responsibilities implemented here:

    - accept authenticated registration requests on UDP 434 and maintain
      the binding table, expiring bindings when their lifetime lapses;
    - capture packets addressed to an absent mobile host using
      {e gratuitous proxy ARP} (RFC 1027) on the home segment, plus address
      claiming so the simulator delivers them to us;
    - tunnel captured packets to the registered care-of address (In-IE,
      Figure 1);
    - {e reverse tunneling}: decapsulate packets the mobile host sent to us
      (Out-IE, Figure 3) and re-send the inner packet — from the home
      network, so boundary filters accept it;
    - optionally answer each forwarded packet with an ICMP care-of
      advertisement to the packet's source (§3.2 discovery mechanism 1),
      rate-limited per correspondent. *)

type t

val create :
  Netsim.Net.node ->
  home_iface:Netsim.Net.iface ->
  ?auth_key:string ->
  ?encap:Encap.mode ->
  ?notify_correspondents:bool ->
  unit ->
  t
(** Attach home-agent behaviour to a node.  [home_iface] is the interface
    on the home segment where proxy ARP is performed.  Defaults: key
    ["secret"], IP-in-IP encapsulation, no ICMP notifications.  It
    notifies one correspondent at most every 30 s and grants at most a
    600 s registration lifetime. *)

val node : t -> Netsim.Net.node
val address : t -> Netsim.Ipv4_addr.t
(** The home agent's own address (its home-segment interface address). *)

val bindings : t -> Types.binding list
val binding_for : t -> Netsim.Ipv4_addr.t -> Types.binding option
(** Current valid binding for a home address. *)

val packets_tunneled : t -> int
(** In-IE forwards performed. *)

val packets_reverse_tunneled : t -> int
(** Out-IE decapsulations performed. *)

val registrations_accepted : t -> int
val registrations_denied : t -> int

(** {1 Expiry}

    Expiry is otherwise lazy — a binding stops matching when next
    consulted.  The purge sweeps eagerly so a mobile host that went quiet
    does not leave its proxy-ARP entry parked on the home segment. *)

val purge_expired : t -> int
(** Remove every expired binding (and its proxy-ARP/claim state) now;
    returns how many were removed. *)

val enable_purge : t -> ?interval:float -> unit -> unit
(** Run {!purge_expired} every [interval] seconds (default 30) for as long
    as the world runs, as a background event ({!Netsim.Engine.every}): it
    never holds a run open.  Skipped while the agent is crashed.
    @raise Invalid_argument if [interval] is not positive. *)

val bindings_purged : t -> int
(** Total bindings removed by {!purge_expired} so far. *)

(** {1 Crash and restart}

    The binding table is soft state: a crash loses every binding, the
    proxy-ARP footprint, and the notification rate-limiter, and while down
    the agent neither answers registrations nor intercepts packets.
    Recovery relies on mobile hosts re-registering (their keepalive retry
    loop) — exactly the failure mode fault-injection experiments
    exercise. *)

val crash : t -> unit
val restart : t -> unit
(** Bring the agent back up.  If a standby took over in the meantime it
    stands down first — releasing every captured address {e before} this
    agent re-installs the (possibly refreshed) bindings it hands back, so
    at no instant do both agents proxy the same home address. *)

val is_up : t -> bool

(** {1 Redundancy}

    A second home agent on the same segment can be paired as a hot
    standby.  The primary replicates every binding install/remove to the
    standby's passive replica (soft-state replication; a crash does not
    wipe the replica).  The standby polls the primary's liveness — the
    deterministic stand-in for a heartbeat protocol — and after observing
    it continuously down for [detect_timeout] it takes over: it claims the
    primary's service address (registration renewals and Out-IE reverse
    tunnels keep working unmodified) and re-establishes gratuitous proxy
    ARP for every replicated binding.  Until then the standby is inert on
    the data plane: no interception, no proxy ARP, no claims. *)

val pair :
  primary:t ->
  standby:t ->
  ?detect_interval:float ->
  ?detect_timeout:float ->
  unit ->
  unit
(** Pair [standby] with [primary]: link the two, seed the replica, and
    start the standby's liveness poll, a background event
    ({!Netsim.Engine.every}) that runs for as long as the world does and
    never holds a run open.  Detection: a poll every [detect_interval]
    seconds (default 2) from the pairing on, takeover once the primary
    has been down [detect_timeout] seconds (default 5).  Worst-case
    takeover latency from the crash instant is therefore
    [detect_timeout +. 2. *. detect_interval].
    @raise Invalid_argument if either agent is already paired, the two are
    the same agent, or the detection parameters are not positive. *)

val is_standby_active : t -> bool
(** Whether this (standby) agent is currently serving in the crashed
    primary's stead. *)

val takeovers : t -> int
(** How many times this standby has taken over. *)

val last_failover : t -> float option
(** Detection latency of the most recent takeover: seconds from first
    observing the primary down to assuming service. *)

(** {1 Multicast relay (§6.4)} *)

val subscribe_multicast :
  t -> group:Netsim.Ipv4_addr.t -> home:Netsim.Ipv4_addr.t -> unit
(** Join the group on the home segment on behalf of the (away) mobile host
    with the given home address, and tunnel each received group packet to
    its care-of address — the "virtual interface on its distant home
    network" membership whose waste §6.4 argues against.
    @raise Invalid_argument if [group] is not a multicast address. *)

val multicast_packets_relayed : t -> int
