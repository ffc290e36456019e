(** The DNS extension for care-of discovery (paper §3.2): "an extension to
    the Domain Name Service, similar to the current MX records... A mobile
    host that is away from home, but not currently changing location
    frequently, could register its care-of address with the extended DNS
    service.  When a smart correspondent looks up a host name and sees that
    it has a temporary address record in addition to the normal permanent
    address record, it then knows that it has the option to send packets
    directly to that temporary address."

    A compact single-server DNS with three message kinds over UDP port 53:
    query, response (permanent A record plus optional temporary record with
    TTL), and a dynamic update by which the mobile host publishes or
    withdraws its temporary record. *)

module Server : sig
  type t

  val create : Netsim.Net.node -> unit -> t
  val add_host : t -> name:string -> addr:Netsim.Ipv4_addr.t -> unit
  (** Register a permanent A record. *)

  val set_temporary :
    t -> name:string -> (Netsim.Ipv4_addr.t * int) option -> unit
  (** Directly set/clear a temporary record (address, TTL seconds) —
      normally done remotely via {!Client.publish_temporary}. *)

  val lookup :
    t -> name:string ->
    (Netsim.Ipv4_addr.t option * (Netsim.Ipv4_addr.t * int) option) option
  (** Server-side inspection: [None] for unknown names, otherwise the
      permanent record and any unexpired temporary record. *)

  val updates_applied : t -> int
end

module Client : sig
  type answer = {
    name : string;
    permanent : Netsim.Ipv4_addr.t option;
    temporary : (Netsim.Ipv4_addr.t * int) option;
        (** care-of address and remaining TTL *)
  }

  val resolve :
    Netsim.Net.node ->
    server:Netsim.Ipv4_addr.t ->
    name:string ->
    (answer -> unit) ->
    unit
  (** Send a query; the callback fires on the response (possibly never if
      the path drops it). *)

  val publish_temporary :
    Netsim.Net.node ->
    server:Netsim.Ipv4_addr.t ->
    ?src:Netsim.Ipv4_addr.t ->
    name:string ->
    care_of:Netsim.Ipv4_addr.t ->
    ttl:int ->
    unit ->
    unit
  (** Dynamic update installing the temporary record ([ttl = 0]
      withdraws it).  A mobile host publishes with its care-of source
      address — this very exchange is an In-DT/Out-DT conversation. *)
end
