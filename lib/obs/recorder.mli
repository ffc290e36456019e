(** The flight recorder: a preallocated fixed-capacity ring buffer of the
    most recent trace records.

    Where the in-memory {!Netsim.Trace} log grows without bound and the
    JSONL sink formats every event, the recorder keeps only the last
    [capacity] records at a cost of one array store per event — cheap
    enough to leave attached during capacity-scale runs, yet when an
    invariant trips, the events leading up to the failure are right
    there.

    Optional {e 1-in-N flow sampling} thins high-rate captures without
    shredding conversations: a deterministic hash of [(flow, seed)]
    decides whether a flow is recorded, so a sampled capture holds every
    event of the selected flows and the same seed selects the same flows
    on every replay.

    A recorder watches one world: {!install} attaches it to that world's
    trace ({!Netsim.Trace.attach_ring}), and it sees none of the events
    of other worlds built in the same process.  An installed recorder
    receives event fields as plain arguments from the data plane's emit
    sites, so in a world with its in-memory log off and only recorders
    installed the hot path allocates nothing per event.  It composes
    with the trace's observers and with the process-wide [--trace-json]
    and [--pcap] sinks; with one of those attached, the world builds its
    records as usual and the recorder gets each one replayed.  {!note}
    feeds a recorder by hand, e.g. from a {!Netsim.Trace.add_observer}
    tap, which forces that full path. *)

type t

val create : ?sample_every:int -> ?seed:int -> capacity:int -> unit -> t
(** A recorder holding the last [capacity] records.  [sample_every]
    (default 1 — keep everything) records roughly one flow in N;
    [seed] (default 0) varies which flows a sampled capture keeps.
    @raise Invalid_argument unless [capacity] and [sample_every] are
    positive. *)

val note : t -> Netsim.Trace.record -> unit
(** Offer one record: the sampling decision, then the ring store. *)

val install : t -> Netsim.Trace.t -> unit
(** Record every event of this trace from now on (idempotent).  Only
    this trace: other worlds' events do not reach the recorder. *)

val uninstall : t -> Netsim.Trace.t -> unit
(** Stop recording this trace (no-op when not installed on it). *)

val records : t -> Netsim.Trace.record list
(** The ring's contents, oldest first — at most [capacity] records. *)

val tail : ?last:int -> t -> Netsim.Trace.record list
(** The newest [last] records, oldest first (default: everything held).
    @raise Invalid_argument on a negative [last]. *)

val dump_jsonl : out_channel -> t -> int
(** Write the ring's contents as trace JSONL (same format as
    [--trace-json]; readable by {!Export.read_trace_jsonl}).  Returns the
    number of lines written. *)

val clear : t -> unit

val capacity : t -> int
val length : t -> int
(** Records currently held: [min kept capacity]. *)

val seen : t -> int
(** Records offered to {!note}, sampled-out ones included. *)

val kept : t -> int
(** Records that passed sampling and entered the ring (cumulative). *)

val sampled : t -> int -> bool
(** Whether the given flow id passes this recorder's sampling filter —
    exposed so tests and tools can predict a capture's contents. *)
