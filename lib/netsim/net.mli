(** The simulated network: topology construction plus the IP data plane.

    A {!t} owns a discrete-event {!Engine}, a {!Trace} and a set of nodes.
    Nodes are hosts or routers; interfaces attach them to Ethernet
    {e segments} (broadcast domains with MAC addressing and ARP) or to
    point-to-point links.  The data plane implements:

    - origin sends with {e route-override hooks} consulted before the
      routing table — the mechanism the paper's Linux implementation uses
      for its mobility policy table (§7);
    - router forwarding with TTL, {!Filter} policies (ingress
      source-address filtering, transit prohibition, firewalls) and
      fragmentation/ICMP-fragmentation-needed on MTU violations;
    - ARP with per-node caches, {e proxy ARP} and {e gratuitous ARP}
      (RFC 1027) — how a home agent captures packets for an absent mobile
      host;
    - delivery to protocol handlers, with fragment reassembly;
    - link-layer-addressed sends ([~l2_dst]) so a correspondent on the same
      segment can deliver a packet whose IP destination "does not belong"
      on that segment — the paper's In-DH method;
    - segment-local multicast delivery with group membership.

    Every IP packet travels inside a frame with a unique id and a [flow]
    id preserved across encapsulation and fragmentation, feeding the
    {!Trace}. *)

type t
type node
type iface
type segment

(** {1 Network and topology} *)

val create : unit -> t
val engine : t -> Engine.t
val trace : t -> Trace.t

val set_tracing : t -> bool -> unit
(** [set_tracing t false] turns off per-packet tracing for this world
    ({!Trace.set_enabled} on its trace): the data plane stops building
    trace events, so throughput runs skip all per-hop record allocation.
    An observer on the trace ({!Trace.add_observer}, or a {!with_tap}
    tap) overrides the switch — oracle and [--trace-json] runs see
    identical events either way.  Default on. *)

val with_tap : (Trace.record -> unit) -> (unit -> 'a) -> 'a
(** [with_tap tap body] runs [body] with [tap] attached, as an observer,
    to the trace of every world {!create}d while [body] runs — how the
    CLI's [--trace-json] and [--pcap] observe worlds built deep inside
    experiment runners.  Nested taps are attached in installation order,
    so each record reaches them in that order.  A world created before
    the call does not get the tap, and a record written after [body]
    returns or raises reaches it no more, even from a world that
    outlives the scope. *)

val now : t -> float

val run : ?until:float -> t -> unit
(** Run the world to quiescence, when only background events remain (or
    to [until]): {!Engine.run} on its engine, with its default runaway
    guard. *)

val stats : t -> Engine.stats
(** [Engine.stats (engine t)]. *)

(** {2 Work counts}

    The world counts two kinds of data-plane work since {!create},
    whatever its trace has attached; each count is an [int] increment
    where the work happens.  The engine counts dispatched events
    ([executed] in {!stats}), and an observer on the trace counts trace
    events. *)

val route_lookups : t -> int
(** Routing-table lookups: one per packet a router forwards (after its
    TTL check), and one per origin send that is not loopback and that
    neither the route-override hook nor [?via] routes. *)

val hook_calls : t -> int
(** Mobility-hook calls: the intercept hook ({!set_intercept}) once per
    local delivery, and the route-override hook ({!set_route_override})
    once per origin send that is not loopback, resubmits included. *)

val add_host : t -> string -> node
val add_router : t -> string -> node
(** @raise Invalid_argument if the name is already taken. *)

val find_node : t -> string -> node option
(** Constant time: the net indexes its nodes by name. *)

val node_name : node -> string

val nodes : t -> node list
(** Every node, in the order it was added. *)

val node_engine : node -> Engine.t
val node_now : node -> float
(** The world's engine and its current time, reached from a node. *)

(** {2 Per-node state}

    A typed slot on each node for state that belongs to the node but is
    defined above this module (the UDP, TCP and ICMP services).  The value
    is reachable only through its node, so it is freed with the world. *)

type 'a key

val new_key : unit -> 'a key
(** A fresh key; each key names one slot on every node. *)

val local : node -> 'a key -> 'a option
val set_local : node -> 'a key -> 'a -> unit
(** Replaces any value already under that key on that node. *)

val add_segment :
  t -> name:string -> ?latency:float -> ?bandwidth:float ->
  ?loss:float -> ?loss_seed:int -> unit -> segment
(** An Ethernet broadcast domain with MTU 1500.  Defaults: 0.5 ms latency,
    unlimited bandwidth, no loss.  [?loss] is a per-frame drop
    probability in [0,1) driven by a seeded deterministic generator
    ([?loss_seed]), so lossy experiments replay identically.
    @raise Invalid_argument unless [0 <= loss < 1] (NaN included). *)

val attach :
  node -> segment -> ifname:string -> addr:Ipv4_addr.t ->
  prefix:Ipv4_addr.Prefix.t -> iface
(** Create an interface with a fresh MAC on the segment and install the
    connected route.
    @raise Invalid_argument if the node already has an interface with this
    name. *)

val p2p :
  t -> ?latency:float -> ?bandwidth:float -> ?mtu:int ->
  ?loss:float -> ?loss_seed:int ->
  prefix:Ipv4_addr.Prefix.t ->
  node * string * Ipv4_addr.t -> node * string * Ipv4_addr.t ->
  iface * iface
(** A point-to-point link (no MAC layer).  Defaults: 10 ms latency,
    unlimited bandwidth, MTU 1500, no loss (see {!add_segment} for the
    loss model).  Installs connected routes on both ends. *)

(** {1 Interfaces} *)

val iface_name : iface -> string
val iface_addr : iface -> Ipv4_addr.t
val iface_prefix : iface -> Ipv4_addr.Prefix.t
val iface_mac : iface -> Mac_addr.t option
(** [None] on point-to-point links. *)

val set_iface_addr : iface -> addr:Ipv4_addr.t -> prefix:Ipv4_addr.Prefix.t -> unit
(** Re-address an interface (mobile host arriving on a new network);
    replaces its connected route. *)

val reattach : iface -> segment -> unit
(** Attach an existing (detached) interface to a new segment and restore
    its connected route. *)

val ifaces : node -> iface list
val find_iface : node -> string -> iface option

(** {1 Node configuration} *)

val routing : node -> Routing.table
val set_filter : node -> Filter.policy -> unit

val claim_address : node -> Ipv4_addr.t -> unit
(** Declare that this node owns (accepts delivery for) an address beyond
    its interface addresses — a mobile host's home address while roaming,
    or a home agent intercepting for an absent mobile host. *)

val unclaim_address : node -> Ipv4_addr.t -> unit
val owns_address : node -> Ipv4_addr.t -> bool

type override_action =
  | Resubmit of Ipv4_packet.t
      (** Replace the packet and run resolution again — the paper's
          "virtual interface that encapsulates and resubmits to IP". *)
  | Via of {
      out : iface;
      next_hop : Ipv4_addr.t option;
      l2_dst : Mac_addr.t option;
    }  (** Force a specific interface/next-hop/link-layer destination. *)
  | Discard of string  (** Drop locally with a reason. *)

val set_route_override :
  node -> (Ipv4_packet.t -> override_action option) option -> unit
(** Install (or clear) the hook consulted before the routing table for
    locally-originated packets. *)

val set_protocol_handler :
  node -> Ipv4_packet.protocol ->
  (node -> iface option -> Ipv4_packet.t -> unit) -> unit
(** Handler for delivered packets of the given protocol.  The [iface]
    argument is [None] for loopback deliveries.  Replaces any previous
    handler for that protocol. *)

val set_delivery_observer : node -> (Ipv4_packet.t -> unit) option -> unit
(** Called on every delivered packet, before the protocol handler. *)

val set_intercept :
  node -> (flow:int -> Ipv4_packet.t -> bool) option -> unit
(** Install (or clear) a capture hook that runs after reassembly but before
    the packet is considered delivered.  Returning [true] consumes the
    packet: no Deliver trace event, no observer, no protocol handler.  This
    is how a home agent captures packets addressed to an absent mobile
    host's home address (jointly with proxy ARP and {!claim_address}) and
    re-tunnels them. *)

val trace_event :
  node -> Trace.kind -> id:int -> flow:int -> Ipv4_packet.t -> unit
(** {!Trace.emit} of an event at the node that carries no interface,
    reason or byte count, stamped with the net's clock: how the mobility
    agents trace their encapsulations and decapsulations. *)

val inject_local :
  node -> flow:int -> Ipv4_packet.t -> unit
(** Deliver a packet locally as if it had just arrived (trace Deliver,
    observer, protocol handler) — used to hand a decapsulated inner packet
    back to the stack.  The intercept hook is {e not} consulted, so a node
    that both captures and decapsulates cannot loop. *)

(** {1 ARP} *)

val add_proxy_arp : node -> iface -> Ipv4_addr.t -> unit
(** Answer ARP requests for the address on this interface's segment with
    our own MAC (proxy ARP). *)

val remove_proxy_arp : node -> iface -> Ipv4_addr.t -> unit

val proxy_arp_entries : node -> Ipv4_addr.t list
(** Every address this node currently answers proxy ARP for, across all
    its interfaces, in installation order — the node's proxy-ARP
    {e footprint}, which the invariant oracle checks is torn down when the
    binding behind it goes away. *)

val gratuitous_arp : node -> iface -> Ipv4_addr.t -> unit
(** Broadcast an unsolicited ARP reply binding the address to this
    interface's MAC, updating caches on the segment. *)

val arp_lookup : node -> Ipv4_addr.t -> Mac_addr.t option
(** Inspect the node's ARP cache (for tests). *)

val clear_arp : node -> unit
(** Flush the ARP cache (a mobile host changing segments must not keep
    neighbour state from the previous network). *)

val neighbour_on_segment :
  node -> Ipv4_addr.t -> (iface * Mac_addr.t) option
(** Ground truth: the MAC currently bound to an address on any segment this
    node is attached to, with our interface on that segment — what a
    mobile-aware host uses for an In-DH [Via] decision once it knows its
    peer is local. *)

(** {1 Multicast} *)

val join_group : node -> iface -> Ipv4_addr.t -> unit
(** Join a multicast group on an interface; segment-local delivery only.
    @raise Invalid_argument if the address is not multicast. *)

(** {1 Sending} *)

val send :
  node -> ?flow:int -> ?via:iface -> ?l2_dst:Mac_addr.t -> Ipv4_packet.t -> int
(** Originate a packet.  Resolution order: destination owned by self
    (loopback delivery) / route-override hook / [?via] / routing table.
    [?l2_dst] forces the link-layer destination of the first hop (In-DH).
    Returns the flow id (fresh unless [?flow] given). *)

val same_segment : node -> node -> bool
(** True when the two nodes have interfaces attached to a common segment —
    the applicability test for the paper's Row C. *)

(** {1 ICMP error signaling}

    Off by default: filtering routers, routers with no route, and nodes
    whose ARP retries exhaust all drop packets silently, exactly like the
    seed behaviour.  When enabled on a world, those three drop points
    answer with a real RFC 792 destination-unreachable quoting the
    offending datagram's IP header plus 8 payload bytes —
    [Admin_prohibited] for filter rejections, [Host_unreachable] for
    missing routes and dead (ARP-unresolvable) next hops — so senders get
    fast negative feedback they can adapt to (§7.1.2).  Emission is held
    down per (node, offender) with deterministic seeded jitter, and never
    answers ICMP, unspecified, broadcast or multicast traffic.  Each
    emission is traced as {!Trace.Icmp_error} when tracing is on. *)

val enable_error_signaling : t -> unit
(** Turn on ICMP error signaling for this world, with a 1 s
    per-(node, offender) hold-down jittered up to +25% by a seeded
    generator. *)

val icmp_errors_sent : t -> int
(** ICMP errors emitted since signaling was enabled (0 while disabled). *)

(** {1 Fault injection}

    The data plane consults an optional per-network hook for every frame
    copy about to be put on a link, after the link's own loss model.  The
    hook is how {!Fault} implements scripted link flaps, partitions,
    latency spikes, duplication and reordering without the data plane
    knowing about schedules or seeds. *)

type fault_verdict =
  | Fault_pass  (** deliver normally *)
  | Fault_drop of Trace.drop_reason
      (** drop this copy, recording the reason (IP frames only; ARP frames
          are dropped silently, like link loss) *)
  | Fault_deliver of { extra_delay : float; duplicate : bool }
      (** deliver after [extra_delay] additional seconds; when [duplicate],
          deliver a second copy at the same instant *)

val set_fault_hook :
  t -> (link:string -> src:string -> dst:string -> fault_verdict) option -> unit
(** Install (or clear) the fault hook.  [link] is the segment or
    point-to-point link name; [src]/[dst] are the transmitting and
    receiving node names.  Called once per receiving interface (a broadcast
    on a segment consults the hook for each member). *)
