(** IP multicast and Mobile IP (paper §6.4).

    "One of the goals of IP multicast is to reduce unnecessary replication
    of network traffic.  Tunneling multicast packets from the home network
    to the visited network is therefore a little self-defeating.  It would
    be better if the multicast application were able to join the multicast
    group through its real physical interface on the current local
    network."

    Two ways for a roaming mobile host to receive a group:

    - {!join_via_home}: the home agent joins on the home segment and
      tunnels every group packet to the care-of address (unicast,
      encapsulated — the wasteful option);
    - {!join_locally}: the host simply joins on its physical interface,
      bypassing Mobile IP entirely.

    Experiment E12 measures the wire-byte cost of each against the same
    stream. *)

val join_via_home :
  Home_agent.t -> Mobile_host.t -> group:Netsim.Ipv4_addr.t -> unit
(** Subscribe through the "virtual interface on the distant home network".
    @raise Invalid_argument if [group] is not multicast. *)

val join_locally :
  Mobile_host.t -> iface:Netsim.Net.iface -> group:Netsim.Ipv4_addr.t -> unit

val send_stream :
  Netsim.Net.node ->
  via:Netsim.Net.iface ->
  group:Netsim.Ipv4_addr.t ->
  port:int ->
  count:int ->
  interval:float ->
  payload_size:int ->
  unit ->
  unit ->
  int list
(** Emit a periodic UDP stream to the group on the sender's segment.
    Packets are emitted over simulated time; the returned thunk yields the
    flow ids of the packets sent so far (query it after running the
    engine). *)

val receive_count :
  Netsim.Net.node -> port:int -> unit -> (unit -> int)
(** Install a UDP listener counting datagrams on [port]; returns a counter
    query function. *)
