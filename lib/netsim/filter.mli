(** Boundary-router packet policies (paper §3.1).

    Three behaviours motivate the whole 4x4 design space, and all are
    implemented here:

    - {b Ingress source-address filtering} (Figure 2): a security-conscious
      boundary router drops packets arriving from outside the domain whose
      source address claims to originate inside it, because accepting them
      would let any Internet host impersonate a trusted internal machine.
    - {b Transit-traffic prohibition}: an end-user ("tail circuit") network
      drops packets whose source address belongs to a foreign network,
      since such packets indicate inappropriate transit use.
    - {b Firewalls}: stricter rule sets; the paper anticipates the firewall
      itself acting as the mobile user's home agent, so a typical firewall
      policy admits encapsulated tunnels to the home agent while rejecting
      other unsolicited outside traffic.

    A policy is an ordered rule list evaluated at packet arrival on an
    interface; the first matching rule decides.  [Accept_all] is the
    default for hosts and permissive routers. *)

type verdict = Pass | Reject of Trace.drop_reason

type rule

(** {1 Rule constructors} *)

val ingress_source_filter :
  external_iface:string -> inside:Ipv4_addr.Prefix.t list -> rule
(** Drop packets arriving on [external_iface] whose source lies inside one
    of the domain's own prefixes (reason {!Trace.Ingress_filter}). *)

val no_transit :
  internal_iface:string -> inside:Ipv4_addr.Prefix.t list -> rule
(** Drop packets arriving on [internal_iface] whose source is foreign to
    the domain (reason {!Trace.Transit_filter}). *)

val firewall_allow_tunnel_to :
  external_iface:string -> home_agent:Ipv4_addr.t -> rule
(** Accept encapsulated (IPIP, GRE or minimal) packets addressed to the
    home agent even when arriving from outside — the "firewall as home
    agent" deployment of §3.1. *)

val firewall_block_external : external_iface:string -> name:string -> rule
(** Drop everything else arriving on the external interface (reason
    {!Trace.Firewall}).  Place after any allow rules. *)

val allow :
  ?in_iface:string ->
  ?src_in:Ipv4_addr.Prefix.t ->
  ?dst_in:Ipv4_addr.Prefix.t ->
  ?protocol:Ipv4_packet.protocol ->
  unit ->
  rule
(** A general accept rule; unspecified fields match anything. *)

val deny : ?in_iface:string -> reason:Trace.drop_reason -> unit -> rule
(** A general reject rule: everything arriving on [in_iface] (default:
    any interface). *)

(** {1 Policies} *)

type policy

val accept_all : policy
val of_rules : rule list -> policy
(** Unmatched packets pass. *)

val of_rules_default_deny : reason:Trace.drop_reason -> rule list -> policy

val evaluate : policy -> in_iface:string -> Ipv4_packet.t -> verdict
