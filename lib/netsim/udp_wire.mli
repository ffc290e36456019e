(** UDP datagram wire format (RFC 768).

    Encoding and decoding include the checksum over the IPv4 pseudo-header,
    which is why both operations take the enclosing packet's source and
    destination addresses. *)

type t = { src_port : int; dst_port : int; payload : Bytes.t }

val make : src_port:int -> dst_port:int -> Bytes.t -> t
(** @raise Invalid_argument if a port is outside [0..65535]. *)

val byte_length : t -> int
(** Encoded length: header plus payload. *)

val encode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> t -> Bytes.t

val decode :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> Bytes.t -> (t, string) result
(** Parse and verify length and checksum. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
