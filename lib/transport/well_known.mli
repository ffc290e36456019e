(** Well-known port numbers used by the examples, heuristics and tests.

    The paper's §7.1.1 heuristics key off exactly these: "connections to
    port 80 are likely to be HTTP requests and can safely use Out-DT.
    Similarly, UDP packets addressed to UDP port 53 are likely to be DNS
    requests".

    Values: echo 7, telnet 23, dns 53, dhcp 67/68, http 80, pop3 110,
    nfs 2049, Mobile IP registration 434, ephemeral range from 49152. *)

val telnet : int
val dns : int
val dhcp_server : int
val dhcp_client : int
val http : int
val nfs : int
val mip_registration : int
val ephemeral_base : int
