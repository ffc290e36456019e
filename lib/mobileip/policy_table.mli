(** The user-configured mobility policy table (paper §7.1.2): rules
    "specified similarly to the way routing table entries are currently
    specified, as an address and a mask value", stating for which
    destinations Mobile IP should begin in an optimistic mode (try Out-DH
    first) and for which in a pessimistic mode (start from Out-IE) —
    "a single rule [can] identify the entire home network as a region
    where Out-IE should always be used". *)

type mode =
  | Optimistic  (** start aggressive: Out-DH first *)
  | Pessimistic  (** start conservative: Out-IE first *)

val pp_mode : Format.formatter -> mode -> unit

type t

val create : ?default:mode -> unit -> t
(** Default mode for unmatched destinations is [Optimistic]. *)

val add_rule : t -> Netsim.Ipv4_addr.Prefix.t -> mode -> unit
val remove_rule : t -> Netsim.Ipv4_addr.Prefix.t -> unit

val mode_for : t -> Netsim.Ipv4_addr.t -> mode
(** Longest-prefix-match over the rules; the default when none matches. *)

val rules : t -> (Netsim.Ipv4_addr.Prefix.t * mode) list
(** Most specific first. *)

val of_string : string -> (t, string) result
(** Parse a user configuration, one rule per line, "specified similarly to
    the way routing table entries are currently specified" (§7.1.2):

    {v
    # the whole home network always needs the conservative method
    36.0.0.0/8      pessimistic
    131.7.42.0/24   optimistic
    default         optimistic
    v}

    Blank lines and [#] comments are ignored; at most one [default] line;
    errors carry the offending line number. *)

val to_string : t -> string
(** Render back to the configuration syntax ({!of_string} round-trips). *)
