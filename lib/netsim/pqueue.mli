(** A mutable binary min-heap keyed by (float priority, int sequence
    number).

    This is the event queue underlying the discrete-event {!Engine}.  The
    caller numbers each element it adds, and elements of equal priority
    pop in sequence-number order.  The engine numbers its events from one
    counter, so events scheduled for the same instant run in the order
    they were scheduled — essential for deterministic simulation — and
    its lanes ({!Engine.lane}) share that order with the heap.

    Layout: heap positions hold int slot numbers, with each position's
    key unboxed beside it (a [floatarray] of priorities and an [int
    array] of sequence numbers).  A value is written once into a slot
    array on {!add} and cleared once when popped or removed; vacated
    slots are reused.  A slot-to-position index, kept by the sifts, lets
    {!remove} take an element out from the middle of the heap.  Sifts
    move only floats and ints, so neither {!add}, {!pop_min} nor
    {!remove} allocates (except when {!add} grows the arrays, doubling
    them).  Priorities must not be NaN: the engine rejects NaN times
    before they reach the queue. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> priority:float -> seq:int -> 'a -> unit
(** [add q ~priority ~seq v] inserts [v].  [seq] orders it among equal
    priorities, lowest first; the caller must never give two elements of
    one queue the same [seq], which keeps the order total and every stale
    handle stale.  O(log n). *)

type handle
(** Names one queued element, for {!remove}: its slot and its sequence
    number. *)

val add_removable : 'a t -> priority:float -> seq:int -> 'a -> handle
(** {!add}, returning a handle to the element (the handle is the one
    allocation). *)

val remove : 'a t -> handle -> bool
(** [remove q h] takes [h]'s element out of the queue and returns [true].
    The last element fills its place and moves up or down, so the order
    of the others, FIFO among ties included, is unchanged.  O(log n).

    A stale handle is a no-op that returns [false]: its element was
    popped or removed already, the queue was {!clear}ed since, or its
    slot now holds a newer element.  The caller never reuses a sequence
    number, so a stale handle can match no element. *)

val priorities : 'a t -> floatarray
(** The heap's priority array, by heap position.  While the queue is not
    empty, [Float.Array.unsafe_get (priorities q) 0] is the minimum
    priority: an unboxed load, with no call that would box a float
    result (the engine's dispatch loop reads its next event time this
    way).  Treat it as read-only, and fetch it again after an {!add}:
    growing the queue replaces it. *)

val seqs : 'a t -> int array
(** The heap's sequence-number array, by heap position, read like
    {!priorities}: while the queue is not empty, [Array.unsafe_get (seqs
    q) 0] is the minimum element's [seq]. *)

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
(** Drop every element and release the arrays.  Every handle taken
    before is stale, as long as the caller keeps its sequence numbers
    counting. *)
