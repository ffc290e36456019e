(** Per-packet life-cycle tracing.

    Every wire packet in the simulator is wrapped in a frame carrying a
    unique [id] and a [flow] identifier that survives encapsulation,
    decapsulation and fragmentation.  The trace records what happened to
    each frame — where it was sent, forwarded, dropped (and why) or
    delivered — so tests and experiments can assert exact paths, hop
    counts, wire bytes and drop reasons.

    Hop counts in the experiment tables are [transmissions]: the number of
    link traversals a flow's bytes made, which is the paper's notion of
    "distance travelled through the Internet". *)

type drop_reason =
  | Ingress_filter
      (** boundary router: outside packet claiming an inside source (Fig 2) *)
  | Transit_filter  (** foreign source on a non-transit tail circuit *)
  | Firewall of string
  | Ttl_expired
  | No_route
  | Mtu_exceeded  (** over-MTU packet with the DF bit set *)
  | Arp_unresolved
  | Not_for_me  (** unicast packet reaching a host that does not own it *)
  | Link_down
  | Link_loss  (** random loss on a lossy link (seeded, deterministic) *)
  | Link_flap  (** link scripted down by a {!Fault} plan *)
  | Partitioned  (** sender and receiver on opposite sides of a scripted partition *)
  | Reassembly_timeout
  | Custom of string

val pp_drop_reason : Format.formatter -> drop_reason -> unit
val drop_reason_equal : drop_reason -> drop_reason -> bool

type frame_info = { id : int; flow : int; pkt : Ipv4_packet.t }

type event =
  | Send of { node : string; frame : frame_info }
  | Transmit of { link : string; frame : frame_info; bytes : int }
  | Forward of {
      node : string;
      in_iface : string;
      out_iface : string;
      frame : frame_info;
    }
  | Drop of { node : string; reason : drop_reason; frame : frame_info }
  | Deliver of { node : string; frame : frame_info }
  | Encapsulate of { node : string; frame : frame_info }
      (** [frame] is the new outer frame; its [flow] is inherited. *)
  | Decapsulate of { node : string; frame : frame_info }
      (** [frame] is the revealed inner frame. *)
  | Icmp_error of { node : string; reason : drop_reason; frame : frame_info }
      (** [node] originated an ICMP error in response to a drop with
          [reason]; [frame] is the generated error packet (its payload
          quotes the offending datagram).  Emitted only when error
          signaling is enabled on the net ({!Net.enable_error_signaling}). *)

type record = { time : float; event : event }

val frame_of : event -> frame_info
(** The frame an event is about, whatever its constructor. *)

type t

val create : unit -> t
val record : t -> time:float -> event -> unit
(** Write one record: into the log when it is on or an observer is
    attached, then to every observer and ring.  The data plane goes
    through {!emit}; this entry is for records built by hand. *)

val records : t -> record list
(** All records, oldest first. *)

val clear : t -> unit
val length : t -> int

val set_enabled : t -> bool -> unit
(** Turn the in-memory log on or off (default on).  While it is off
    {e and} no observer or ring is attached, {!interested} is false and
    {!emit} returns at once — the per-hop fast path allocates nothing for
    tracing.  Records written while an observer keeps the trace
    interested are still logged normally; attached rings keep
    {!interested} true but do {e not} revive the unbounded log. *)

val interested : t -> bool
(** Whether anything wants this trace's events right now: the log is
    on, or an observer or ring is attached. *)

(** {1 Observers}

    Observers belong to one trace and tee: any number can be attached at
    once, each called with every record in attachment order, such as the
    [--trace-json] and [--pcap] taps of [Net.with_tap].  An observer must
    not call back into the trace it is observing. *)

type observer
(** Handle for one attached observer. *)

val add_observer : t -> (record -> unit) -> observer
(** Call [f] with every record written to {e this} trace from now on.
    An attached observer makes {!emit} build a record for every event,
    and the log fills as if it were on. *)

val remove_observer : t -> observer -> unit
(** Removing twice, or removing a never-attached handle, is a no-op. *)

(** {1 Flight-recorder rings}

    Observers receive allocated {!record} values, so any one of them
    makes the data plane build the frame/event/record graph for every
    traced event.  A {e ring} is a preallocated fixed-capacity last-K
    event store fed field by field: when rings are a trace's only
    consumers, {!emit} writes slot arrays straight from the emit site
    and allocates nothing.  This is what lets the flight recorder stay
    attached during capacity runs at a few percent of throughput.  An
    attached ring sees every event exactly once, whichever path it took
    — records that a log or observer made {!emit} build, and records
    written by hand with {!record}, are replayed into rings by
    destructuring.

    Rings are per-trace, like observers: a ring attached to one trace
    sees that world's events and no other's, however many worlds the
    process builds. *)

type ring

val make_ring : ?sample_every:int -> ?seed:int -> capacity:int -> unit -> ring
(** A ring holding the last [capacity] events.  [sample_every] (default
    1 — keep everything) records roughly one flow in N, decided by a
    deterministic hash of [(flow, seed)] so sampled captures keep whole
    conversations and replay identically; [seed] (default 0) varies
    which flows are kept.
    @raise Invalid_argument unless [capacity] and [sample_every] are
    positive. *)

val attach_ring : t -> ring -> unit
(** Feed the ring every event of {e this} trace from now on (idempotent).
    Composes with the trace's observers; a ring attached to several
    traces records all of them. *)

val detach_ring : t -> ring -> unit
(** Detaching a ring not attached to the trace is a no-op. *)

val ring_store_record : ring -> record -> unit
(** Offer a record's fields to the ring: the sampling decision, then the
    slot stores — for feeding a ring from an observer. *)

val ring_records : ring -> record list
(** Rebuild the ring's contents as structurally identical records,
    oldest first — at most [capacity] of them.  Cold path. *)

val ring_tail : ?last:int -> ring -> record list
(** The newest [last] of {!ring_records} (default: all of them), oldest
    first.
    @raise Invalid_argument on a negative [last]. *)

val ring_sampled : ring -> int -> bool
(** Whether a flow id passes the ring's sampling filter. *)

val ring_capacity : ring -> int
val ring_seen : ring -> int
(** Events offered, sampled-out ones included. *)

val ring_kept : ring -> int
(** Events that passed sampling and entered the ring (cumulative). *)

val ring_length : ring -> int
(** Events currently held: [min kept capacity]. *)

val ring_clear : ring -> unit

(** {1 Emitting events} *)

type kind
(** An event constructor's tag, for {!emit}. *)

val k_send : kind
val k_transmit : kind
val k_forward : kind
val k_drop : kind
val k_deliver : kind
val k_encapsulate : kind
val k_decapsulate : kind
val k_icmp_error : kind

val no_reason : drop_reason
(** The [reason] to pass {!emit} for a kind that carries none. *)

val set_time_source : t -> floatarray -> unit
(** Point the trace at the one-element cell {!emit} reads the current
    time from ({!Engine.clock_cell} of the owning net's engine).  Until
    set, emits are stamped 0.0 — every real trace gets wired by
    [Net.create].  The trace never writes the cell. *)

val emit :
  t ->
  kind ->
  string ->
  in_iface:string ->
  out_iface:string ->
  reason:drop_reason ->
  id:int ->
  flow:int ->
  bytes:int ->
  Ipv4_packet.t ->
  unit
(** [emit t kind name ~in_iface ~out_iface ~reason ~id ~flow ~bytes pkt]
    traces the [kind] event about frame [{id; flow; pkt}], stamped from
    the {!set_time_source} cell.  [name] is the node, or the link for
    {!k_transmit}.  A kind ignores the fields it does not carry: the
    interfaces of anything but a forward, the reason of anything but a
    drop or an ICMP error, the bytes of anything but a transmit.

    It decides once per event what to do.  With the log on or an
    observer attached, it {!record}s the event.  With only rings
    attached, it stores the fields into them and allocates nothing.
    With nothing attached, it returns.  Every trace site of the data
    plane and the mobility agents calls it. *)

(** {1 Flow queries}

    All flow queries are served from a per-flow index maintained
    incrementally by {!record}: [transmissions] and [wire_bytes] are O(1)
    running counters, the others walk only the flow's own records. *)

val flows : t -> int list
(** Every flow id that has at least one record, ascending. *)

val flow_records : t -> flow:int -> record list
val transmissions : t -> flow:int -> int
(** Link traversals made by the flow — the "hops" metric. *)

val wire_bytes : t -> flow:int -> int
(** Total bytes the flow put on links (fragments and encapsulation
    included). *)

val delivered : t -> flow:int -> node:string -> bool
val delivery_time : t -> flow:int -> node:string -> float option
(** Time of first delivery at [node]. *)

val send_time : t -> flow:int -> float option
val drops : t -> flow:int -> (string * drop_reason) list
(** (node, reason) pairs for every drop of the flow. *)

val path : t -> flow:int -> string list
(** Nodes the flow visited, in order: origin, forwarders
    (encapsulation/decapsulation points included), final deliveries. *)

val pp_record : Format.formatter -> record -> unit
val dump : Format.formatter -> t -> unit
