(** Correspondent-host Mobile IP software (paper §5, §7.2).

    Three capability levels exist in the 1996 Internet the paper describes:

    - {e Conventional}: runs stock networking software; always addresses
      the mobile host's home address, so its packets travel In-IE via the
      home agent, and it needs no code here beyond "do nothing".
    - {e Decapsulation-capable}: like "recent versions of Linux", it can
      unwrap encapsulated packets addressed to it, enabling the mobile host
      to use Out-DE.  (The paper's caution applies: automatic decapsulation
      weakens address-based trust; this implementation accepts any tunnel,
      exactly the behaviour the paper warns should be paired with real
      authentication.)
    - {e Mobile-aware}: additionally maintains a binding cache fed by ICMP
      care-of advertisements or DNS temporary records, encapsulates
      directly to the care-of address (In-DE), and switches to single-hop
      link-layer delivery (In-DH) when it can see that the care-of address
      is on one of its own segments.

    For experiments, the per-destination incoming method can be forced to
    any of the four, overriding the automatic choice. *)

type capability = Conventional | Decap_capable | Mobile_aware

type t

val create :
  Netsim.Net.node -> capability:capability -> ?encap:Encap.mode -> unit -> t

val node : t -> Netsim.Net.node

(** {1 Binding cache (mobile-aware only)} *)

val learn_binding :
  t ->
  home:Netsim.Ipv4_addr.t ->
  care_of:Netsim.Ipv4_addr.t ->
  lifetime:int ->
  unit
(** Insert/refresh a cache entry (no-op unless mobile-aware; lifetime 0
    removes the entry). *)

val cached_care_of : t -> home:Netsim.Ipv4_addr.t -> Netsim.Ipv4_addr.t option
(** Valid (unexpired) cache lookup. *)

val binding_cache : t -> Types.binding list

(** {1 Method choice} *)

val in_method_for : t -> dst:Netsim.Ipv4_addr.t -> Grid.in_method
(** What the next packet to [dst] would use: the forced method if pinned;
    otherwise In-DH when the cached care-of address is a neighbour, In-DE
    when mobile-aware with a valid cache entry, In-IE otherwise. *)

val force_in_method :
  t -> dst:Netsim.Ipv4_addr.t -> Grid.in_method option -> unit
(** Pin (or release) the method used for one destination.  Forcing [In_DE],
    [In_DH] or [In_DT] requires a cache entry for the destination at send
    time; packets are dropped locally (trace reason [Custom]) if it is
    missing — matching the fact that those methods are meaningless without
    knowing the care-of address. *)

(** {1 Statistics} *)

val packets_encapsulated : t -> int
(** In-DE wraps performed. *)

val packets_decapsulated : t -> int
(** Out-DE tunnels unwrapped. *)

val adverts_received : t -> int
(** ICMP care-of advertisements accepted into the cache. *)
