(** 48-bit link-layer (Ethernet) addresses.

    The simulator assigns a fresh locally-administered MAC to every
    interface attached to an Ethernet segment; ARP ({!Net}) maps IPv4
    addresses onto these. *)

type t = private int
(** A MAC address: its 48-bit value.  The representation is visible,
    read-only, so the data plane can match a frame's destination inline,
    as [(a :> int) = (b :> int)]: dune's dev profile compiles every
    module [-opaque], and a call to {!equal} from another module is never
    inlined there.  Make addresses with {!of_int}, {!of_string} or
    {!fresh}. *)

val of_int : int -> t
(** @raise Invalid_argument if outside [0 .. 2^48-1]. *)

val to_int : t -> int
val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val broadcast : t
val is_broadcast : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val fresh : unit -> t
(** A generator of distinct locally-administered unicast addresses. *)
