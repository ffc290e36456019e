(** Concrete Mobile IP invariants over a {!Topo} world.

    {!Netsim.Invariant} is the generic engine; this module knows the
    mobility layer.  Each [add_*] installs one named invariant built from
    the state-exposure accessors — the properties the chaos soak harness
    checks while faults play out:

    - {e binding-lifetime}: no binding outlives its granted lifetime in
      the home agent's table (beyond a purge-interval grace);
    - {e withdrawal}: after the mobile host abandons a registration, no
      correspondent keeps routing to the stale care-of address — the
      zero-lifetime withdrawal advert reached them or their cache entry
      expired;
    - {e proxy-arp-purge}: the home agent's proxy-ARP footprint shrinks
      with the binding table — no entry lingers without a valid binding;
    - {e selector-discipline}: the mobile host never sends via an
      outgoing method its selector has recorded as failed;
    - {e ha-failover-recovery}: with a standby home agent paired, the two
      agents never proxy-ARP for the same address simultaneously, and a
      crashed primary is covered by the standby within 10 s;
    - {e eventual-recovery}: once the last scripted fault is over, the
      mobile host ends the run registered (or home);
    - {e tcp-stream}: application bytes arrive in order, without
      duplication or corruption, against a caller-supplied reference
      stream.

    Graces default to generous values (wider than the home agent's purge
    interval, wider than a withdrawal round trip) so transient states are
    not misreported; tests shrink them to force violations quickly. *)

type t

val create : Topo.t -> t
(** An oracle over the world's network.  Installs nothing: callers pick
    invariants with the [add_*] functions or {!install_standard}. *)

val inv : t -> Netsim.Invariant.t
(** The underlying generic oracle (for {!Netsim.Invariant.checks_run}). *)

val add_binding_lifetime : ?grace:float -> t -> unit
(** Polled.  Default [grace] 45 s — wider than the default
    {!Mobileip.Home_agent.enable_purge} interval of 30 s, so a world with
    the purge enabled never trips it. *)

val add_withdrawal : ?grace:float -> t -> unit
(** Polled.  Violated when, [grace] (default 5 s) after a registration
    failure, the correspondent still holds a valid cache entry learned
    before the failure and the host has not re-registered. *)

val add_proxy_arp : ?grace:float -> t -> unit
(** Polled.  An entry must regain a valid binding or disappear within
    [grace] (default 45 s) of being orphaned. *)

val add_selector_discipline : t -> unit
(** Polled.  No-op until a selector is installed on the mobile host. *)

val add_recovery : after:float -> t -> unit
(** Final.  [after] is when the last scripted fault ends
    ({!Netsim.Fault.plan_end}); the bound is the run itself — by the time
    a run ends with nothing but background events queued, a host that is
    away and unregistered has no pending retry left and will never
    recover. *)

val add_tcp_stream :
  expected:(int -> char) -> t -> Transport.Tcp.conn -> unit
(** Check every byte the connection delivers against [expected offset],
    as the invariant ["tcp-stream"].  Owns the connection's [on_receive]
    callback. *)

val install_standard : ?recovery_after:float -> t -> unit
(** The polled invariants above (the failover one arms itself only in
    standby worlds), plus eventual recovery when [?recovery_after] is
    given.  (TCP stream monitors need a connection, so they are always
    explicit.) *)

(** {1 Flight recorder} *)

val attach_recorder : t -> unit
(** Attach a 512-event {!Netsim.Trace.ring}, unsampled, to the world's
    trace: it sees every event of this world and no other's, and a world
    with its in-memory log off keeps the allocation-free path.  At the
    {e first} invariant violation the whole ring is snapshotted — the
    events leading up to the failure, frozen before the ring wraps past
    them — and exposed through {!recorder_tail}.
    Idempotent; {!finish} detaches the recorder (and, if the run ended
    violated before the snapshot fired, grabs the final ring contents
    instead). *)

val recorder_tail : t -> Netsim.Trace.record list
(** The snapshot captured at the first violation, oldest first; [[]] when
    no recorder was attached or nothing was violated. *)

(** {1 Running} — thin wrappers over {!Netsim.Invariant}. *)

val start : ?interval:float -> ?ticks:int -> t -> unit
(** {!Netsim.Invariant.start}: [ticks] bounds the observation window,
    which holds the run open. *)

val check_now : t -> unit
val finish : t -> unit
val violations : t -> Netsim.Invariant.violation list
