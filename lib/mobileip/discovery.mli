(** Care-of-address discovery (paper §3.2): the two mechanisms by which "a
    smart correspondent host can learn that a host is mobile and learn its
    current temporary care-of address".

    1. {b ICMP advertisements}: when the home agent forwards a packet it
       sends an ICMP message back to the source.  This is automatic once
       the home agent is created with [~notify_correspondents:true] and the
       correspondent is mobile-aware; nothing to call here.
    2. {b DNS temporary records}: the mobile host publishes its care-of
       address ({!publish_care_of}); a smart correspondent resolving the
       name sees the temporary record and feeds its binding cache
       ({!discover_via_dns}).

    Experiment E11 compares how many packets each mechanism needs before
    the correspondent switches from In-IE to In-DE. *)

val publish_care_of :
  Mobile_host.t ->
  dns_server:Netsim.Ipv4_addr.t ->
  name:string ->
  unit ->
  bool
(** Publish the mobile host's current care-of address under its DNS name
    (TTL 120 s).  Returns false (and does nothing) when the host is
    at home — a host at home has no temporary address.  The update is sent
    from the care-of address: publishing is itself an Out-DT
    conversation. *)

val discover_via_dns :
  Correspondent.t ->
  dns_server:Netsim.Ipv4_addr.t ->
  name:string ->
  ?on_result:(learned:bool -> unit) ->
  unit ->
  unit
(** Resolve the name; when the answer carries a temporary record, feed the
    correspondent's binding cache so its next packets can go In-DE. *)
