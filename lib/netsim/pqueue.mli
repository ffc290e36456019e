(** A mutable binary min-heap keyed by float priority with FIFO tie-breaking.

    This is the event queue underlying the discrete-event {!Engine}.
    Insertion order is preserved among equal priorities so that events
    scheduled for the same instant run in the order they were scheduled —
    essential for deterministic simulation.

    Layout: heap positions hold int slot numbers, with each position's
    key unboxed beside it (a [floatarray] of priorities and an [int
    array] of insertion sequence numbers).  A value is written once into
    a slot array on {!add} and cleared once when popped or removed;
    vacated slots are reused.  A slot-to-position index, kept by the
    sifts, lets {!remove} take an element out from the middle of the heap.
    Sifts move only floats and ints, so neither {!add}, {!pop_min} nor
    {!remove} allocates (except when {!add} grows the arrays, doubling
    them).  Priorities must not be NaN: the engine rejects NaN times
    before they reach the queue. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> priority:float -> 'a -> unit
(** Insert an element. O(log n). *)

type handle
(** Names one queued element, for {!remove}: its slot and its insertion
    sequence number. *)

val add_removable : 'a t -> priority:float -> 'a -> handle
(** {!add}, returning a handle to the element (the handle is the one
    allocation). *)

val remove : 'a t -> handle -> bool
(** [remove q h] takes [h]'s element out of the queue and returns [true].
    The last element fills its place and moves up or down, so the order
    of the others, FIFO among ties included, is unchanged.  O(log n).

    A stale handle is a no-op that returns [false]: its element was
    popped or removed already, the queue was {!clear}ed since, or its
    slot now holds a newer element.  Sequence numbers are never reused,
    so a stale handle can match no element. *)

val priorities : 'a t -> floatarray
(** The heap's priority array, by heap position.  While the queue is not
    empty, [Float.Array.unsafe_get (priorities q) 0] is the minimum
    priority: an unboxed load, with no call that would box a float
    result (the engine's dispatch loop reads its next event time this
    way).  Treat it as read-only, and fetch it again after an {!add}:
    growing the queue replaces it. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum-priority element, FIFO among ties,
    without allocating.  The queue keeps no reference to the removed
    element. O(log n).
    @raise Invalid_argument if the queue is empty. *)

val pop : 'a t -> (float * 'a) option
(** The minimum priority and {!pop_min} together, or [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** The minimum-priority element without removing it. O(1). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drop every element and release the arrays.  Insertion sequence
    numbers keep counting, so every handle taken before is stale. *)
