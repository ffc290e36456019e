(** Application workloads from the paper's motivating discussion (§6.4,
    §7.1.1): short-lived HTTP fetches, long-lived telnet sessions, DNS
    lookups, NFS-style RPC. *)

type tcp_session_stats = {
  established : bool;
  messages_echoed : int;
  client_retransmissions : int;
  final_state : Transport.Tcp.state;
  elapsed : float;
}

val tcp_echo_server : Netsim.Net.node -> port:int -> unit
(** Echo every received chunk back and keep the connection open. *)

val tcp_echo_session :
  net:Netsim.Net.t ->
  client:Netsim.Net.node ->
  server_addr:Netsim.Ipv4_addr.t ->
  port:int ->
  ?src:Netsim.Ipv4_addr.t ->
  ?messages:int ->
  ?spacing:float ->
  ?message_size:int ->
  unit ->
  tcp_session_stats
(** Connect, send [messages] chunks [spacing] seconds apart, count echoes;
    runs the network to completion.  A telnet-like long-lived session. *)

val http_fetch :
  net:Netsim.Net.t ->
  client:Netsim.Net.node ->
  server_addr:Netsim.Ipv4_addr.t ->
  ?src:Netsim.Ipv4_addr.t ->
  unit ->
  bool * float
(** One short-lived HTTP-like exchange on port 80 (request, response,
    close).  Returns (completed, elapsed).  The server side is installed on
    first use per node. *)

val install_http_server : Netsim.Net.node -> unit -> unit
(** Serve a 2048-byte object to each connection on port 80, then close. *)

val udp_request_response :
  net:Netsim.Net.t ->
  client:Netsim.Net.node ->
  server:Netsim.Net.node ->
  server_addr:Netsim.Ipv4_addr.t ->
  port:int ->
  ?src:Netsim.Ipv4_addr.t ->
  unit ->
  bool * float
(** One NFS/DNS-style datagram transaction, a 64-byte request and a
    256-byte response; returns (answered, rtt). *)
