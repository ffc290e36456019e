(** TCP segment wire format (RFC 793, no options).

    The simulator's transport library ({!module:Transport.Tcp}) builds its
    connection machinery on these segments.  Sequence and acknowledgement
    numbers are plain [int]s held in [0 .. 2^32-1]; arithmetic helpers wrap
    modulo 2^32. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val no_flags : flags
val flag_syn : flags
val flag_syn_ack : flags
val flag_ack : flags
val flag_fin_ack : flags
val flag_rst : flags
val pp_flags : Format.formatter -> flags -> unit

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_n : int;
  flags : flags;
  window : int;
  payload : Bytes.t;
}

val make :
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_n:int ->
  flags:flags ->
  ?window:int ->
  Bytes.t ->
  t
(** @raise Invalid_argument on out-of-range ports, sequence numbers or
    window. *)

val byte_length : t -> int
val seq_add : int -> int -> int
(** Sequence arithmetic modulo 2^32. *)

val seq_leq : int -> int -> bool
(** [seq_leq a b]: [a] is at or before [b] in sequence space (RFC 793
    §3.3), comparing modulo 2^32: [b] lies less than 2^31 ahead of [a].
    So [seq_leq 0xffff_fff0 5] holds. *)

val seq_lt : int -> int -> bool
(** [seq_lt a b] is [seq_leq a b && a <> b]. *)

val encode : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> t -> Bytes.t
val decode :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> Bytes.t -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
