(** The Internet checksum (RFC 1071), with word-at-a-time summing.

    Used by the IPv4 header ({!Ipv4_packet}), ICMP ({!Icmp_wire}) and, with a
    pseudo-header, by UDP and TCP ({!Udp_wire}, {!Tcp_wire}). *)

val ones_complement_sum : ?initial:int -> Bytes.t -> int -> int -> int
(** [ones_complement_sum ?initial buf off len] folds the 16-bit one's
    complement sum of [len] bytes of [buf] starting at [off] into [initial]
    (default 0).  A trailing odd byte is padded with zero, as the RFC
    specifies.  The result is a 16-bit partial sum, not yet complemented.

    The sum is carried eight bytes at a time (the one's complement sum is
    associative modulo [0xffff], so wider words fold to the same value);
    bounds are checked once here, not per byte.
    @raise Invalid_argument if the range is outside the buffer. *)

val finish : int -> int
(** One's-complement the partial sum, yielding the checksum field value. *)

val compute : Bytes.t -> int
(** Checksum of a whole buffer: [finish (ones_complement_sum buf 0 len)]. *)

val compute_sub : Bytes.t -> int -> int -> int
(** Checksum of a sub-range of a buffer. *)

val address_sum : Ipv4_addr.t -> int
(** An address's share of a header sum: its two 16-bit halves, unfolded. *)

val pseudo_header_sum :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> protocol:int -> length:int -> int
(** Partial sum of the IPv4 pseudo-header used by TCP and UDP checksums. *)

val valid : Bytes.t -> bool
(** [valid buf] is true when the buffer (with its embedded checksum field)
    sums to zero — i.e. the checksum verifies. *)
