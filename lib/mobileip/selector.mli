(** Adaptive choice among the three home-address delivery methods (§7.1.2).

    The paper describes two probing orders and their waste:

    - {e conservative-first}: start with Out-IE, tentatively try Out-DE and
      Out-DH over the lifetime of the conversation, returning to the
      conservative method when an aggressive one fails — wasteful when the
      aggressive methods would have worked all along;
    - {e aggressive-first}: start with Out-DH and fall back — wasteful when
      the destination is known to sit behind a protective gateway;
    - {e rule-based}: a user-configured {!Policy_table} says per address
      range whether to begin optimistically or pessimistically.

    Failure is detected through the retransmission indications of the
    paper's proposed IP-interface extension (wired up from
    {!Transport.Tcp.set_feedback} by {!Mobile_host}): repeated
    retransmissions to or from an address suggest the currently selected
    delivery method is not working.

    A method that had to be abandoned is remembered as failed for that
    destination and is not probed again, so each destination converges. *)

type strategy =
  | Conservative_first
  | Aggressive_first
  | Rule_based of Policy_table.t

type event =
  | Original_received
      (** an original (non-retransmitted) packet arrived from the peer:
          the current method is working *)
  | Retransmission_detected
      (** a retransmission was sent to, or received from, the peer *)
  | Icmp_error
      (** a router answered a packet to the peer with an ICMP
          destination-unreachable: authoritative negative feedback, so
          the current method is abandoned immediately rather than after
          [fallback_after] retransmission hints *)

type t

val create :
  ?escalate_after:int ->
  ?fallback_after:int ->
  ?max_destinations:int ->
  strategy ->
  t
(** [escalate_after] consecutive successes trigger a try of the next more
    aggressive method (default 4); [fallback_after] consecutive
    retransmission signals abandon the current method (default 2).
    [max_destinations] (default 1024) caps the per-destination table:
    beyond it the least recently used destination is evicted and, if seen
    again, restarts from the strategy's initial method. *)

val method_for : t -> Netsim.Ipv4_addr.t -> Grid.out_method
(** Current selection for the destination (per-destination state is created
    on first use).  Only returns home-address methods (never [Out_DT] —
    forgoing Mobile IP is an application decision, not a selector one). *)

val report : t -> dst:Netsim.Ipv4_addr.t -> event -> unit

val switches : t -> dst:Netsim.Ipv4_addr.t -> int
(** How many times the method changed for this destination. *)

val failed_methods : t -> dst:Netsim.Ipv4_addr.t -> Grid.out_method list

val converged : t -> dst:Netsim.Ipv4_addr.t -> bool
(** True once the destination's method is stable: it has proven itself and
    no more aggressive method remains to probe. *)

val reset : t -> dst:Netsim.Ipv4_addr.t -> unit
(** Forget everything about a destination (e.g. after moving: the set of
    filters on the path has changed). *)

val reset_all : t -> unit

val known_destinations : t -> Netsim.Ipv4_addr.t list
(** Destinations with per-destination state, sorted — what the invariant
    oracle sweeps when checking that the selection never lands on a
    method recorded as failed. *)
