(** Int-keyed open-addressing map for per-node data-plane lookups.

    Replaces the generic [(Ipv4_addr.t, _) Hashtbl.t] in the ARP cache,
    the pending-ARP queue and the protocol-handler table: keys are the
    int image of a 32-bit address (or a protocol number), hashing is one
    multiply-and-mask, probing is linear over a flat array, and a lookup
    hit returns the stored [Some v] cell without allocating.

    Keys must be non-negative (all 32-bit addresses and protocol numbers
    are); [min_int] is reserved as the empty-slot sentinel. *)

type 'a t

val create : unit -> 'a t
(** An empty map.  It allocates its arrays (8 slots, doubled as it fills)
    at its first insert, so a map that is never written costs only its
    record. *)

val of_addr : Ipv4_addr.t -> int
(** The key an address maps to: its 32-bit unsigned int image. *)

val find : 'a t -> int -> 'a option
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val reset : 'a t -> unit
val length : 'a t -> int
