(** Encapsulation modes for Mobile IP tunnels (§2, §3.3).

    The paper notes that IP-in-IP "typically adds 20 bytes" and that the
    overhead "can be minimized by use of Generic Routing Encapsulation or
    Minimal Encapsulation".  All three are available; IP-in-IP is the
    default everywhere, and experiment E6 compares the overheads. *)

type mode =
  | Ipip  (** RFC 2003 style IP-in-IP: +20 bytes *)
  | Minimal  (** Perkins minimal encapsulation: +12 bytes *)
  | Gre  (** RFC 1702 GRE: +24 bytes *)

val all_modes : mode list
val overhead : mode -> int
val mode_to_string : mode -> string

val wrap :
  mode ->
  src:Netsim.Ipv4_addr.t ->
  dst:Netsim.Ipv4_addr.t ->
  ?ttl:int ->
  ?ident:int ->
  Netsim.Ipv4_packet.t ->
  Netsim.Ipv4_packet.t
(** Build the outer packet carrying the given inner packet.  The outer
    header copies the inner TOS; TTL defaults to 64; the outer IP ident
    defaults to the inner one (pass a tunnel-local [?ident] when a single
    encapsulator serves many inner senders, so outer fragments cannot
    collide). *)

val unwrap : Netsim.Ipv4_packet.t -> (mode * Netsim.Ipv4_packet.t) option
(** Recover the inner packet from an encapsulated one; [None] when the
    packet is not a tunnel packet.  For minimal encapsulation the inner
    header's TTL/TOS/ident are inherited from the outer header, as the
    format specifies. *)

val is_tunnel : Netsim.Ipv4_packet.t -> bool
