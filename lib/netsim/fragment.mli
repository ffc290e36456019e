(** IP fragmentation and reassembly (RFC 791).

    The paper's §3.3 observes that 20 bytes of encapsulation overhead can
    push a full-MTU packet over the limit, doubling the packet count.
    Experiment E9 exercises exactly this path. *)

type error =
  | Dont_fragment  (** packet exceeds MTU but has DF set *)
  | Header_too_big  (** MTU below the header size; cannot make progress *)

val pp_error : Format.formatter -> error -> unit

val fragment : mtu:int -> Ipv4_packet.t -> (Ipv4_packet.t list, error) result
(** Split a packet into fragments that each fit in [mtu] bytes.  A packet
    already within the MTU is returned unchanged as a singleton.  Fragment
    payloads are [Raw] slices of the encoded original payload; offsets are
    in 8-byte units as on the wire. *)

(** Reassembly buffer, keyed by (src, dst, protocol, ident). *)
module Reassembly : sig
  type t

  val create : unit -> t
  (** An empty buffer.  It allocates its table at the first fragment. *)

  val timeout : float
  (** How long, in seconds, a partial datagram may wait for its missing
      fragments: 60, the low end of the range RFC 1122 §3.3.2
      recommends.  Older partials are dropped when the next fragment
      reaches the buffer. *)

  val add : t -> now:float -> Ipv4_packet.t -> Ipv4_packet.t option
  (** Feed a packet in.  A non-fragment is returned immediately.  A fragment
      first drops every partial datagram whose first fragment arrived more
      than {!timeout} seconds before [now], then is buffered; when it
      completes a datagram, the reassembled packet (with its structured
      payload re-parsed) is returned. *)

  val expire : t -> older_than:float -> int
  (** Drop incomplete datagrams whose first fragment arrived before the
      given time.  Returns the number of datagrams dropped. *)

  val pending : t -> int
  (** Number of incomplete datagrams currently buffered. *)
end
