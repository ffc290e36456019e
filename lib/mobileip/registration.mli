(** The registration protocol between a mobile host and its home agent
    (paper §2): after obtaining a guest connection the MH "registers its
    new location with its home agent"; a lifetime of zero deregisters.

    Messages travel over UDP port 434 and are authenticated with a keyed
    message authenticator shared between the MH and its home agent.  (The
    authenticator is a simple deterministic keyed digest — a stand-in for
    the MD5-based authentication of the IETF specification, strong enough
    to exercise the accept/deny code paths.) *)

type request = {
  home : Netsim.Ipv4_addr.t;
  home_agent : Netsim.Ipv4_addr.t;
      (** where the registration must end up — read (unauthenticated) by a
          relaying foreign agent *)
  care_of : Netsim.Ipv4_addr.t;
  lifetime : int;  (** requested lifetime in seconds; 0 = deregister *)
  sequence : int;
}

type reply = {
  r_home : Netsim.Ipv4_addr.t;
  r_care_of : Netsim.Ipv4_addr.t;
  r_lifetime : int;  (** granted lifetime *)
  r_sequence : int;
  r_code : Types.reg_code;
}

val next_sequence : int -> int
(** The sequence number after [s].  The wire field is 16 bits, so the
    count wraps from 65535 to 0. *)

val sequence_older : int -> than:int -> bool
(** [sequence_older a ~than:b]: [a] was issued before [b], by RFC 1982
    serial-number arithmetic on 16 bits — [b] lies less than half the
    sequence space (2^15) ahead of [a].  So 65535 is older than 0. *)

val authenticator : key:string -> Bytes.t -> int
(** 32-bit keyed digest over a message body. *)

val encode_request : key:string -> request -> Bytes.t
val decode_request : key:string -> Bytes.t -> (request, string) result
(** Fails on truncation or authenticator mismatch. *)

val is_request : Bytes.t -> bool
val is_reply : Bytes.t -> bool

val peek_request_home : Bytes.t -> Netsim.Ipv4_addr.t option
val peek_request_home_agent : Bytes.t -> Netsim.Ipv4_addr.t option
val peek_reply_home : Bytes.t -> Netsim.Ipv4_addr.t option
(** Unauthenticated field reads used by a relaying foreign agent, which
    does not share the MH-HA key. *)

val encode_reply : key:string -> reply -> Bytes.t
val decode_reply : key:string -> Bytes.t -> (reply, string) result

val pp_request : Format.formatter -> request -> unit
val pp_reply : Format.formatter -> reply -> unit
