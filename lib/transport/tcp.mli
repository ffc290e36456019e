(** A simplified TCP, sufficient for the paper's purposes.

    What matters for Mobile IP (paper §2, §7.1.2) is not throughput but:

    - connections are identified by a 4-tuple whose local address is fixed
      when the connection is created — so the choice of source address
      {e is} the mobility decision, and a connection bound to a care-of
      address dies when the host moves;
    - reliability comes from retransmission with exponential backoff, and
      the stack reports, for every segment sent and received, whether it
      was an original or a retransmission — the IP-layer feedback API the
      paper proposes so the mobility software can tell that its currently
      selected delivery method is failing.

    The implementation is stop-and-wait (one segment in flight): handshake,
    in-order delivery, duplicate detection, FIN teardown, RST on unmatched
    segments, and abort after [max_retries] consecutive losses. *)

type t
(** A per-node TCP stack (owns the node's TCP protocol handler). *)

type conn

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Closed
  | Aborted  (** reset by peer, or retransmission limit exhausted *)

val pp_state : Format.formatter -> state -> unit

(** Original-vs-retransmission indications, per the paper's proposed
    addition to the IP programming interface. *)
type feedback =
  | Segment_sent of { peer : Netsim.Ipv4_addr.t; retransmission : bool }
  | Segment_received of { peer : Netsim.Ipv4_addr.t; retransmission : bool }

val get : Netsim.Net.node -> t
(** The node's stack, kept on the node ({!Netsim.Net.local}) and created
    on first call. *)

val set_feedback : t -> (feedback -> unit) option -> unit
(** Install the IP-layer feedback listener (the mobility software's
    selector subscribes here). *)

val listen : t -> ?window:int -> port:int -> (conn -> unit) -> unit
(** Accept connections on a port; the callback fires when a connection
    reaches [Established].  [?window] (default 1) is the send window of
    accepted connections, as in {!connect}. *)

val unlisten : t -> port:int -> unit

val connect :
  t ->
  ?src:Netsim.Ipv4_addr.t ->
  ?src_port:int ->
  ?mss:int ->
  ?window:int ->
  dst:Netsim.Ipv4_addr.t ->
  dst_port:int ->
  unit ->
  conn
(** Open a connection.  [?src] fixes the local endpoint address (the
    mobility decision); default is the node's primary interface address.
    Default [mss] is 536 bytes.  [?window] is the client's send window in
    segments (go-back-N retransmission); the default of 1 is stop-and-wait,
    which keeps simulations minimal and every loss observable. *)

val send_data : conn -> Bytes.t -> unit
(** Queue application data (segmented to the MSS).  The buffer is queued
    as is, not copied, and each segment copies only its own chunk of it:
    do not modify it until it has been sent. *)

val close : conn -> unit
(** Send FIN once queued data has been acknowledged. *)

val abort : conn -> unit
(** Send RST and drop the connection. *)

val on_receive : conn -> (Bytes.t -> unit) -> unit
val on_state_change : conn -> (state -> unit) -> unit

val state : conn -> state
val remote_endpoint : conn -> Netsim.Ipv4_addr.t * int
val retransmissions : conn -> int
(** Total retransmitted segments over the connection's life. *)

val bytes_delivered : conn -> int
(** Application bytes delivered in order to [on_receive]. *)

val retx_aborts : t -> int
(** Connections on this stack that aborted because the retransmission
    limit was exhausted — "gave up", as opposed to recovered after
    retries or reset by the peer.  Soak runs export this as the Netobs
    counter [tcp_retx_aborted_total]. *)

val max_retries : int
(** Consecutive retransmissions of one segment before the connection
    aborts (6). *)
