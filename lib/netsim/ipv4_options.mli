(** IPv4 loose source routing (RFC 791 option 131).

    The paper (§4) considers loose source routing as the alternative to
    encapsulation for steering packets via the home agent, and dismisses
    it: "this achieves little that can't be done equally well using an
    encapsulating header.  Current IP routers typically handle packets
    with options much more slowly than they handle normal unadorned IP
    packets."  Both halves are implemented: this module provides the
    option wire format, {!Net} applies a configurable per-router slow-path
    penalty to optioned packets and performs the source-route rewriting at
    each listed hop, and experiment A1 measures the trade-off.

    Wire layout: type (131), length, pointer (1-based offset of the next
    address), then the route's addresses; the whole option is padded with
    a No-Operation byte to a multiple of four. *)

val build_lsr : via:Ipv4_addr.t list -> Bytes.t
(** An LSR option whose remaining route is [via] (the packet's initial
    destination should be the first element; the final destination is the
    packet's eventual [dst] which the sender stores as the route's last
    entry).  Convention used here (and by BSD stacks): the packet is
    addressed to the first intermediate hop and the option carries the
    {e remaining} addresses, ending with the true destination.
    @raise Invalid_argument if [via] is empty or longer than 9 hops. *)

val parse_lsr : Bytes.t -> (int * Ipv4_addr.t list) option
(** [parse_lsr options] finds an LSR option and returns
    [(pointer_index, addresses)] where [pointer_index] is the 0-based
    index of the next address still to visit ([= List.length addresses]
    when the route is exhausted).  [None] if no LSR option is present. *)

val lsr_next_hop : Bytes.t -> Ipv4_addr.t option
(** The next address to visit, if the route is not exhausted. *)

val advance_lsr : Bytes.t -> here:Ipv4_addr.t -> Bytes.t option
(** Advance the pointer past the next address, recording [here] in its
    place (the visited-route recording of RFC 791).  [None] when the
    route is exhausted. *)

val has_options : Bytes.t -> bool
(** True when the buffer contains at least one non-NOP option byte. *)

val copied_options : Bytes.t -> Bytes.t
(** The subset of the options that must be replicated into non-first
    fragments: those whose type byte has the RFC 791 copy bit (0x80) set —
    LSR qualifies, NOPs and non-copied options do not.  The result is
    NOP-padded to a multiple of four (possibly empty). *)
