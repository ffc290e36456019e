(** A compact DHCP-like address assignment service (paper §2: a mobile
    host's guest connection "may be obtained by connecting to an Ethernet
    segment and having an address assigned automatically by DHCP").

    The exchange is a two-message REQUEST/ACK over real UDP broadcast on
    ports 67/68, exercising the simulator's broadcast delivery: the client
    sends from 0.0.0.0 to 255.255.255.255 identifying itself by MAC; the
    server answers with a leased address, prefix and default gateway. *)

module Server : sig
  type t

  val create :
    Netsim.Net.node ->
    pool:Netsim.Ipv4_addr.Prefix.t ->
    first_host:int ->
    last_host:int ->
    gateway:Netsim.Ipv4_addr.t ->
    unit ->
    t
  (** Serve addresses [host pool first_host .. host pool last_host].
      Leases are per client MAC and stable across repeated requests, and
      last 3600 s. *)

  val outstanding : t -> int
end

module Client : sig
  type offer = {
    addr : Netsim.Ipv4_addr.t;
    prefix : Netsim.Ipv4_addr.Prefix.t;
    gateway : Netsim.Ipv4_addr.t;
    lease_time : int;
  }

  val request :
    Netsim.Net.node -> via:Netsim.Net.iface -> (offer -> unit) -> unit
  (** Broadcast a request on the interface's segment; the callback fires
      when the ACK arrives.  The caller is responsible for configuring the
      interface with the offered address (see
      {!Mobileip.Mobile_host.attach_via_dhcp}). *)
end
