(** ICMP message wire format (RFC 792), extended with the experimental
    care-of-address advertisement the paper proposes (§3.2): when the home
    agent forwards a packet it may send an ICMP message back to the source
    informing it of the mobile host's current care-of address, so that a
    mobile-aware correspondent can switch from In-IE to In-DE.

    The care-of advertisement uses ICMP type 40 (an unassigned value in
    1996), carrying the home address, care-of address, and a lifetime. *)

type unreach_code =
  | Net_unreachable
  | Host_unreachable
  | Protocol_unreachable
  | Port_unreachable
  | Fragmentation_needed
  | Admin_prohibited

type t =
  | Echo_request of { ident : int; seq : int; payload : Bytes.t }
  | Echo_reply of { ident : int; seq : int; payload : Bytes.t }
  | Dest_unreachable of { code : unreach_code; context : Bytes.t }
      (** [context] is the leading bytes of the offending datagram. *)
  | Time_exceeded of { context : Bytes.t }
  | Care_of_advert of {
      home : Ipv4_addr.t;
      care_of : Ipv4_addr.t;
      lifetime : int;  (** seconds; 0 revokes the binding *)
    }

val quote_context : Bytes.t -> Bytes.t
(** [quote_context wire] extracts the RFC 792 error context from an encoded
    IPv4 datagram: the IP header (per its IHL field) plus the first 8 bytes
    of payload, truncated to the datagram's actual length.  Use as the
    [context] of a {!Dest_unreachable} or {!Time_exceeded}. *)

val context_original : Bytes.t -> (Ipv4_addr.t * Ipv4_addr.t) option
(** [context_original context] recovers the (source, destination) addresses
    of the offending datagram quoted in an error [context], or [None] when
    the context is too short to contain a full IP header. *)

val byte_length : t -> int
val encode : t -> Bytes.t
val decode : Bytes.t -> (t, string) result
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
