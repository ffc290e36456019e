(** IPv4 addresses and CIDR prefixes.

    Addresses are stored as 32-bit big-endian integers.  The module provides
    parsing, printing, classification predicates and the prefix arithmetic
    needed by the routing table ({!Routing}) and the boundary-router filters
    ({!Filter}). *)

type t = private int32
(** An IPv4 address: its 32-bit value, [a.b.c.d] as [0xaabbccdd].  The
    representation is visible, read-only, so a hot path in another
    module can test an address inline, as [(a :> int32) = (b :> int32)]:
    dune's dev profile compiles every module [-opaque], and a call to
    {!equal} or {!is_multicast} from another module is never inlined
    there.  Make addresses with the functions below, and order them with
    {!compare}, which is unsigned, not with [Int32.compare]. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].  Each octet must be in
    [0..255].
    @raise Invalid_argument otherwise. *)

val to_octets : t -> int * int * int * int

val of_string : string -> t
(** Parse dotted-quad notation.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val any : t
(** [0.0.0.0], the unspecified address. *)

val broadcast : t
(** [255.255.255.255], the limited broadcast address. *)

val localhost : t
(** [127.0.0.1]. *)

val is_multicast : t -> bool
(** True for class-D addresses ([224.0.0.0/4]). *)

val is_loopback : t -> bool
(** True for [127.0.0.0/8]. *)

val succ : t -> t
(** Numerically next address (wraps at [255.255.255.255]). *)

(** CIDR prefixes such as [36.0.0.0/8]. *)
module Prefix : sig
  type addr := t

  type t
  (** A network prefix: a base address and a mask length. *)

  val make : addr -> int -> t
  (** [make network bits] is [network/bits].  Host bits in [network] are
      zeroed.
      @raise Invalid_argument if [bits] is outside [0..32]. *)

  val of_string : string -> t
  (** Parse ["a.b.c.d/n"] notation.
      @raise Invalid_argument on malformed input. *)

  val of_string_opt : string -> t option
  val to_string : t -> string
  val network : t -> addr
  val bits : t -> int
  val netmask : t -> addr

  val mem : addr -> t -> bool
  (** [mem a p] is true when address [a] lies within prefix [p]. *)

  val subset : t -> t -> bool
  (** [subset sub super] is true when every address of [sub] is in
      [super]. *)

  val host : t -> int -> addr
  (** [host p n] is the [n]-th host address within [p] (1-based; [host p 1]
      is the first usable address after the network address).
      @raise Invalid_argument if [n] does not fit in the host bits. *)

  val broadcast_addr : t -> addr
  (** Directed broadcast address of the prefix. *)

  val equal : t -> t -> bool

  val global : t
  (** [0.0.0.0/0], matching every address. *)
end
