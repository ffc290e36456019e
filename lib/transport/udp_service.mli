(** Per-node UDP endpoint management.

    One service exists per node (created on first use); it owns the node's
    UDP protocol handler and demultiplexes datagrams to port listeners.
    Senders may pin the source address — that choice is exactly the
    mobility decision the paper discusses (§7.1.1): a socket bound to the
    physical interface address communicates with Out-DT, one bound to the
    home address goes through the Mobile IP machinery installed in the
    node's route override. *)

type t

val get : Netsim.Net.node -> t
(** The node's UDP service, installing the protocol handler on first call. *)

type datagram = {
  src : Netsim.Ipv4_addr.t;
  dst : Netsim.Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  payload : Bytes.t;
  in_iface : Netsim.Net.iface option;
}

val listen : t -> port:int -> (t -> datagram -> unit) -> unit
(** Register a listener; replaces any previous listener on the port. *)

val unlisten : t -> port:int -> unit

val send :
  t ->
  ?src:Netsim.Ipv4_addr.t ->
  ?via:Netsim.Net.iface ->
  ?l2_dst:Netsim.Mac_addr.t ->
  dst:Netsim.Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  Bytes.t ->
  int
(** Send a datagram; returns the flow id.  With no [?src] the source
    address is resolved by the node's routing (the outgoing interface
    address).  [?l2_dst] forces the link-layer destination of the first
    hop (a foreign agent's In-DH final-hop delivery). *)

val ephemeral_port : t -> int
(** Allocate a fresh port from the dynamic range. *)
