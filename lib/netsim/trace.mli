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
val records : t -> record list
(** All records, oldest first. *)

val clear : t -> unit
val length : t -> int

val set_enabled : t -> bool -> unit
(** Turn per-packet tracing on or off (default on).  While off {e and} no
    observer or sink is installed, {!interested} is false and the data
    plane skips building events — the per-hop fast path allocates nothing
    for tracing.  Records written while an observer or sink keeps the
    trace interested are still logged normally; attached rings keep
    {!interested} true but do {e not} revive the unbounded log. *)

val enabled : t -> bool

val interested : t -> bool
(** Whether anything wants this trace's events right now: the trace is
    enabled, an observer or ring is attached to it, or a process-wide
    sink is installed.  The data plane checks this before constructing
    an event. *)

(** {1 Composable taps}

    Observers are per-trace, sinks are process-wide; both tee — any
    number can be installed at once, each called with every record in
    installation order.  The invariant oracle, the flight recorder,
    [--trace-json] and [--pcap] all coexist.  A tap must not call back
    into the trace it is observing. *)

type observer
(** Handle for one installed per-trace tap. *)

type sink
(** Handle for one installed process-wide tap. *)

val add_observer : t -> (record -> unit) -> observer
(** Install a tap called with every record written to {e this} trace —
    how the {!Invariant} oracle's watches see a run without disturbing
    the process-wide sinks. *)

val remove_observer : t -> observer -> unit
(** Removing twice, or removing a never-installed handle, is a no-op. *)

val add_sink : (record -> unit) -> sink
(** Install a tap receiving every record from {e every} trace as it is
    written — the hook behind the CLI's [--trace-json] and [--pcap]
    streaming exports, which observe worlds built deep inside experiment
    runners. *)

val remove_sink : sink -> unit

val set_observer : t -> (record -> unit) option -> unit
(** Single-slot facade over {!add_observer}: installs the tap, replacing
    whatever the previous [set_observer] installed; [None] clears it.
    Taps installed with {!add_observer} are untouched. *)

val set_sink : (record -> unit) option -> unit
(** Single-slot facade over {!add_sink} with the same replace-in-place
    semantics; sinks installed with {!add_sink} are untouched. *)

(** {1 Flight-recorder rings}

    Observers and sinks receive allocated {!record} values, so any one
    of them forces the data plane to build the frame/event/record graph
    for every traced event.  A {e ring} is a preallocated fixed-capacity
    last-K event store fed field-by-field: when rings are the only
    consumers, the specialised [emit_*] entry points below write slot
    arrays straight from the emit site and allocate nothing.  This is
    what lets the flight recorder stay attached during capacity runs at
    a few percent of throughput.  An attached ring sees every event
    exactly once regardless of which path it took — events routed
    through {!record} (full consumers attached, or event kinds with no
    [emit_*] helper) are replayed into rings by destructuring.

    Rings are per-trace, like observers: a ring attached to one trace
    sees that world's events and no other's, however many worlds the
    process builds, and the trace holds no ring state shared between
    worlds.  A world with its in-memory log off ({!set_enabled}) and
    only rings attached takes the allocation-free path for every
    specialised event.

    This is the storage primitive behind [Netobs.Recorder], which adds
    the user-facing capture API (install, tail, JSONL/pcap dumps). *)

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
    Composes with the trace's observers and with process-wide sinks; a
    ring attached to several traces records all of them. *)

val detach_ring : t -> ring -> unit
(** Detaching a ring not attached to the trace is a no-op. *)

val ring_store :
  ring ->
  float ->
  int ->
  string ->
  string ->
  string ->
  drop_reason ->
  int ->
  int ->
  Ipv4_packet.t ->
  int ->
  unit
(** [ring_store rg time kind name in_iface out_iface reason id flow pkt
    bytes] offers one event to the ring: the sampling decision, then the
    slot stores.  [kind] is one of the [k_*] tags below; [name] is the
    node name, or the link name for {!k_transmit}; arguments that do not
    apply to a kind are [""] / a placeholder reason / [0]. *)

val ring_store_record : ring -> record -> unit
(** {!ring_store} of a record's fields — for feeding a ring from an
    observer or sink. *)

val ring_records : ring -> record list
(** Rebuild the ring's contents as structurally identical records,
    oldest first — at most [capacity] of them.  Cold path. *)

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

(** Kind tags used by {!ring_store}, numbered in declaration order of
    {!event}. *)

val k_send : int

val k_transmit : int
val k_forward : int
val k_drop : int
val k_deliver : int
val k_encapsulate : int
val k_decapsulate : int
val k_icmp_error : int

val set_time_source : t -> floatarray -> unit
(** Point the trace at the one-element cell its [emit_*] fast paths read
    the current time from ({!Engine.clock_cell} of the owning net's
    engine).  Until set, emits are stamped 0.0 — every real trace gets
    wired by [Net.make].  The trace never writes the cell. *)

val emit_send : t -> node:string -> id:int -> flow:int -> pkt:Ipv4_packet.t -> unit
(** [emit_send] .. [emit_deliver] are equivalent to {!record} with the
    corresponding event (stamped from the {!set_time_source} cell) but
    are self-gated: they skip event construction entirely when only
    rings are interested, and do nothing at all when nothing is.  The
    data plane uses them unguarded for its hottest events; other call
    sites keep using {!record}. *)

val emit_transmit :
  t -> link:string -> id:int -> flow:int -> pkt:Ipv4_packet.t -> bytes:int -> unit

val emit_forward :
  t ->
  node:string ->
  in_iface:string ->
  out_iface:string ->
  id:int ->
  flow:int ->
  pkt:Ipv4_packet.t ->
  unit

val emit_deliver : t -> node:string -> id:int -> flow:int -> pkt:Ipv4_packet.t -> unit

val emit_encapsulate :
  t -> node:string -> id:int -> flow:int -> pkt:Ipv4_packet.t -> unit

val emit_decapsulate :
  t -> node:string -> id:int -> flow:int -> pkt:Ipv4_packet.t -> unit
(** Tunnel encap/decap on the same allocation-free fast path — on a
    roamed topology these fire for every tunneled packet. *)

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

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit
val dump : Format.formatter -> t -> unit
