(** Discrete-event simulation engine.

    Time is a float in seconds.  Events are closures scheduled at absolute or
    relative times; [run] runs them in timestamp order (FIFO among
    simultaneous events, so the simulation is deterministic).

    Every simulated network ({!Net}) owns one engine; link transmission,
    protocol timers (TCP retransmission, registration lifetimes, binding
    cache TTLs) are all engine events, and so are the periodic
    housekeeping ticks ({!every}) that never keep a run going. *)

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

(** {1 Statistics}

    The engine keeps cheap running statistics so the observability layer
    can expose them as gauges without instrumenting call sites. *)

type stats = {
  executed : int;  (** events executed since [create] *)
  pending : int;  (** current queue depth *)
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
(** Number of queued events, background ones included. *)
