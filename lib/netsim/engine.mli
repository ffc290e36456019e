(** Discrete-event simulation engine.

    Time is a float in seconds.  Events are closures scheduled at absolute or
    relative times; [run] runs them in timestamp order (FIFO among
    simultaneous events, so the simulation is deterministic).

    Every simulated network ({!Net}) owns one engine; link transmission,
    protocol timers (TCP retransmission, registration lifetimes, binding
    cache TTLs) are all engine events, and so are the periodic
    housekeeping ticks ({!every}) that never keep a run going.

    Events wait in one of two structures.  The heap ({!Pqueue}) takes any
    event: {!schedule}, {!after}, {!cancellable_after} and {!every}
    queue there, at O(log n).  A {e lane} ({!lane}, {!append}) takes
    events that all run one fixed delay after they are queued, at O(1):
    the clock never moves back and adding a fixed delay to it is
    monotone, so a lane's events are already in time order as they
    arrive, and a ring keeps them.  Most events in a simulated network
    are frame deliveries, each at [now + link latency], and a world has
    few distinct latencies, so {!Net} gives each link with no bandwidth
    term its latency's lane.  Everything else stays on the heap:
    bandwidth-dependent delays, fault-injected delays and duplicates,
    ARP retries, the IP-options slow path and every protocol timer.

    One engine-wide counter numbers every queued event, heap or lane,
    and dispatch runs the least (time, number) among the heap's top and
    the lanes' heads: exactly the order one heap holding every event
    would give.  Which structure an event waits in changes nothing a
    caller can see — not the order, the clock, nor {!stats}. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds. *)

val clock_cell : t -> floatarray
(** The one-element cell backing {!now}, for consumers that read the
    clock on every packet event (the trace fast path): an unboxed
    [Float.Array.unsafe_get _ 0] away, with no accessor call.  Treat it
    as read-only — the engine owns the store. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is in the past or NaN. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or NaN. *)

val cancellable_after : t -> float -> (unit -> unit) -> unit -> unit
(** [cancellable_after t delay f] schedules [f] like {!after} and returns
    a cancel function.  Cancelling takes the event out of the queue
    (O(log n), {!Pqueue.remove}): it never runs, the clock never visits
    its time, and it leaves [executed], [pending] and [max_pending]
    alone, so those count live events only.  Each event so removed
    counts once in [cancelled].  Cancelling again, or after the event
    ran, is a no-op.
    @raise Invalid_argument if [delay] is negative or NaN. *)

val every : t -> float -> (unit -> unit) -> unit
(** [every t interval f] runs [f] at [now t +. interval], then every
    [interval] seconds after that, for the engine's whole life: a
    {e background} event, for housekeeping such as a purge sweep or a
    liveness poll.  A background event never holds a run open (see
    {!run}).  Each tick queues the next one before it calls [f].
    @raise Invalid_argument if [interval] is not positive, or is NaN. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Run events in timestamp order.  Without [until], stops once only
    background events ({!every}) remain queued, with the clock at the
    last event it ran; with [until], runs every event, background ones
    included, up to [until], and stops early only if the queue empties.
    Also stops after [max_events] events (default 10 million, a runaway
    guard).  A run stopped by [until] advances the clock to [until]
    unless the clock is already past it: the clock never moves back.  A
    run stopped by the guard while it still had work to do is not silent:
    it logs a warning and increments [truncated] in {!stats}.

    [run] reads no host clock, and its dispatch loop allocates nothing
    (the events themselves may); time a run from outside when its host
    cost matters, as E18 and E20 do. *)

(** {1 Lanes} *)

type lane
(** One engine's FIFO of events that each run a fixed delay after they
    are appended. *)

val lane : t -> delay:float -> lane option
(** [lane t ~delay] is [t]'s lane for [delay], made on the first request
    and shared by every later one for an equal delay.  An engine keeps at
    most 8 lanes; past that, a request for a new delay gets [None] and
    its caller keeps using {!after}.  Dispatch compares every busy lane's
    head, so the cap keeps that scan short: with all 8 lanes busy an
    event still dispatches in well under the heap's time, and the
    scenario worlds use at most three.  A lane's ring is allocated at its
    first {!append}, so taking a lane costs a world's set-up almost
    nothing.
    @raise Invalid_argument if [delay] is negative or NaN. *)

val append : lane -> (unit -> unit) -> unit
(** [append l f] runs [f] at [now t +. delay], where [t] and [delay] are
    [l]'s engine and delay: the same time, and the same place among
    simultaneous events, as [after t delay f] would give it.  O(1)
    amortised: it allocates only when the ring doubles.  Once [f] has
    run, the lane holds no reference to it. *)

(** {1 Statistics}

    The engine keeps cheap running statistics so the observability layer
    can expose them as gauges without instrumenting call sites. *)

type stats = {
  executed : int;  (** events executed since [create] *)
  pending : int;  (** current queue depth, heap and lanes together *)
  max_pending : int;  (** high-water mark of the queue depth *)
  cancelled : int;
      (** events taken out of the queue by a {!cancellable_after} cancel
          before they ran *)
  truncated : int;  (** runs stopped by the [max_events] guard *)
  sim_time : float;  (** current simulated time, seconds *)
}
(** Simulated quantities only: host wall or CPU time is for the caller to
    measure around [run]. *)

val stats : t -> stats

val step : t -> bool
(** Run the next event, background or not.  Returns false when the queue
    is empty. *)

val pending : t -> int
(** Number of queued events, on the heap and on lanes, background ones
    included. *)
