(** IPv4 packets with real wire encoding, including the three encapsulation
    formats discussed in the paper (§2, §3.3):

    - IP-in-IP ([Encap], protocol 4): a complete inner IP packet carried as
      payload; 20 bytes of overhead — the figure the paper quotes.
    - Generic Routing Encapsulation ([Gre_encap], protocol 47, RFC 1702):
      4-byte GRE header plus the inner packet; 24 bytes of overhead.
    - Minimal encapsulation ([Min_encap], protocol 55, Perkins draft): the
      inner header is compressed into a 12-byte extension (we always carry
      the original-source field), so the overhead is 12 bytes.

    Structured payloads (UDP/TCP/ICMP) are parsed on decode when the packet
    is not a fragment; fragments carry [Raw] payloads until reassembled by
    {!Fragment}. *)

type protocol =
  | P_icmp  (** 1 *)
  | P_ipip  (** 4 — IP-in-IP encapsulation *)
  | P_tcp  (** 6 *)
  | P_udp  (** 17 *)
  | P_gre  (** 47 *)
  | P_minimal  (** 55 — minimal encapsulation *)
  | P_other of int

val protocol_to_int : protocol -> int
val protocol_of_int : int -> protocol
val pp_protocol : Format.formatter -> protocol -> unit

type t = {
  tos : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** in 8-byte units, as on the wire *)
  ttl : int;
  protocol : protocol;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  options : Bytes.t;  (** raw options; length must be a multiple of 4 *)
  payload : payload;
}

and payload =
  | Raw of Bytes.t
  | Udp of Udp_wire.t
  | Tcp of Tcp_wire.t
  | Icmp of Icmp_wire.t
  | Encap of t  (** IP-in-IP inner packet *)
  | Gre_encap of t
  | Min_encap of t
      (** Inner packet reconstructed from / compressed into the minimal
          encapsulation header.  On the wire only the inner protocol, source
          and destination are carried; other inner header fields are taken
          from the outer header on decode. *)

val ipip_overhead : int
(** 20 — the encapsulation overhead the paper quotes (§3.3). *)

val gre_overhead : int
(** 24 — outer header plus 4-byte GRE header. *)

val minimal_overhead : int
(** 12 — the minimal-encapsulation extension header. *)

val make :
  ?tos:int ->
  ?ident:int ->
  ?dont_fragment:bool ->
  ?ttl:int ->
  ?options:Bytes.t ->
  protocol:protocol ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  payload ->
  t
(** Build an unfragmented packet.  Defaults: [tos=0], [ident=0],
    [dont_fragment=false], [ttl=64], no options.
    @raise Invalid_argument on out-of-range fields or options whose length
    is not a multiple of 4. *)

val header_length : t -> int
val payload_byte_length : payload -> int
val byte_length : t -> int
(** Total encoded length, computed without allocating. *)

val encode : t -> Bytes.t
(** Full wire encoding with header checksum.
    @raise Invalid_argument if the packet exceeds 65535 bytes. *)

val decode : Bytes.t -> (t, string) result
(** Parse a wire packet, verifying the header checksum and, for structured
    payloads, the transport checksum. *)

val reparse_payload : t -> t
(** If the payload is [Raw] and the packet is not a fragment, attempt to
    parse it into a structured payload according to [protocol] (used after
    fragment reassembly).  Returns the packet unchanged on failure. *)

exception Ttl_expired

val decrement_ttl : t -> t
(** The packet one hop on, its TTL one lower.  No result is boxed, so a
    forwarding hop pays for the new packet alone.
    @raise Ttl_expired if the TTL would reach zero: the packet may not be
    forwarded. *)

val header_checksum : t -> int
(** The header checksum [encode] would emit for this packet, computed
    field-wise without serialising — equal to the 16-bit value at offset
    10 of [encode t]. *)

val is_fragment : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** One-line summary: addresses, protocol, size, nesting. *)
