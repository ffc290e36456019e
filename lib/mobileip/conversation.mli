(** The grid-cell conversation harness behind experiments E8 and E13.

    Runs a bidirectional request/response exchange between the mobile host
    and a correspondent under a chosen (incoming, outgoing) cell, and
    measures what the paper's Figure 10 claims qualitatively:

    - whether packets physically arrive in each direction, and by what
      path (hops = link traversals, wire bytes, one-way latency);
    - whether the cell is usable by connection-oriented transports: the
      reply must arrive addressed to the same address the mobile host used
      as its source — {!Grid.endpoint_consistent}, observed on real packets
      rather than assumed.

    The UDP runner forces both sides' methods and has the correspondent
    application answer to the mobile host's {e home} address (or, under
    In-DT, its temporary address), which is what lets the broken cells be
    exercised at all.  The TCP runner performs an actual connect/
    echo/close over the cell and reports whether the connection worked —
    only meaningful for cells whose methods the stacks can express. *)

type udp_result = {
  cell : Grid.cell;
  requests_sent : int;
  requests_delivered : int;  (** at the correspondent *)
  replies_sent : int;
  replies_delivered : int;  (** back at the mobile host *)
  transport_consistent : bool;
      (** every delivered reply was addressed to the source address the
          requests used *)
  request_hops : int;  (** link traversals of the last request *)
  reply_hops : int;
  request_wire_bytes : int;  (** total bytes on links for the last request *)
  reply_wire_bytes : int;
  request_latency : float option;  (** one-way, last request *)
  reply_latency : float option;
}

val configure :
  mh:Mobile_host.t ->
  ch:Correspondent.t ->
  ch_addr:Netsim.Ipv4_addr.t ->
  cell:Grid.cell ->
  Netsim.Ipv4_addr.t * Netsim.Ipv4_addr.t
(** Force both sides into the cell's methods — the correspondent's
    incoming method for the MH's home address, the MH's outgoing method
    for [ch_addr] (cleared for Out-DT, which is an application decision),
    and a pre-learned binding at the correspondent.  Returns
    [(home, care_of)].  The churn harness (E16) reuses this to run its own
    traffic pattern.  @raise Invalid_argument if the MH is at home. *)

val deconfigure :
  mh:Mobile_host.t -> ch:Correspondent.t -> ch_addr:Netsim.Ipv4_addr.t -> unit
(** Undo {!configure}'s forced methods. *)

val run_udp :
  net:Netsim.Net.t ->
  mh:Mobile_host.t ->
  ch:Correspondent.t ->
  ch_addr:Netsim.Ipv4_addr.t ->
  cell:Grid.cell ->
  unit ->
  udp_result
(** Requires the MH to be away and registered, and the correspondent to be
    created with [Mobile_aware] capability (so methods can be forced); the
    harness seeds its binding cache itself.  Sends 3 requests of 64 bytes
    to port 7. *)

type tcp_result = {
  t_cell : Grid.cell;
  connected : bool;
  echoed : bool;  (** request data came back *)
  final_state : Transport.Tcp.state;
  client_retransmissions : int;
}

val run_tcp :
  net:Netsim.Net.t ->
  mh:Mobile_host.t ->
  ch:Correspondent.t ->
  ch_addr:Netsim.Ipv4_addr.t ->
  cell:Grid.cell ->
  unit ->
  tcp_result
(** A real TCP echo to port 8080 over the cell: the MH connects with the
    source address
    the cell's outgoing method implies, the correspondent's incoming method
    is forced for the home address.  Broken cells manifest as failed
    handshakes or aborted connections. *)
