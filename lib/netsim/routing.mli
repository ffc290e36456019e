(** Per-node IP routing tables with longest-prefix-match lookup.

    A route maps a destination prefix to an outgoing interface name and an
    optional next-hop gateway (absent for directly-connected networks).
    Lookup prefers the longest matching prefix, then the lowest metric,
    then the most recently added route.

    Internally the table is a path-compressed binary trie on address bits:
    a node exists only where routes live or where two subtrees branch, so
    a route costs at most two nodes, and [lookup] walks only the nodes on
    its address's path, at most one per prefix length.  In front of the
    trie sits a 16-slot direct-mapped destination cache, keyed by the low
    four bits of the address: a router that forwards to a handful of
    addresses in turn (a tunnel's home-agent, correspondent, home and
    care-of addresses) answers each of them from the cache, in O(1) and
    without allocating.  Any mutation invalidates every entry at once by
    bumping a generation stamp, so invalidation is O(1) too. *)

type route = {
  prefix : Ipv4_addr.Prefix.t;
  gateway : Ipv4_addr.t option;  (** [None] = directly connected *)
  iface : string;
  metric : int;
}

val pp_route : Format.formatter -> route -> unit

type table

val create : unit -> table

val add : table -> ?metric:int -> ?gateway:Ipv4_addr.t ->
  prefix:Ipv4_addr.Prefix.t -> iface:string -> unit -> unit
(** Add a route (default metric 0). *)

val add_default : table -> gateway:Ipv4_addr.t -> iface:string -> unit
(** Add a [0.0.0.0/0] route. *)

val remove :
  table ->
  ?iface:string ->
  ?metric:int ->
  prefix:Ipv4_addr.Prefix.t ->
  unit ->
  unit
(** [remove t ?iface ?metric ~prefix ()] removes routes for exactly this
    prefix.  With no filters, removes every such route (the historical
    behaviour); [?iface] and/or [?metric] restrict removal to routes that
    also match those fields, for callers that mean one specific route. *)

val remove_iface : table -> iface:string -> unit
(** Remove every route through the named interface (used when a mobile
    host detaches from a network). *)

val lookup : table -> Ipv4_addr.t -> route option
(** Longest-prefix-match lookup. *)

val routes : table -> route list
(** Current routes, most specific first. *)

val clear : table -> unit
val pp : Format.formatter -> table -> unit
