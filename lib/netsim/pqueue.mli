(** A mutable binary min-heap keyed by float priority with FIFO tie-breaking.

    This is the event queue underlying the discrete-event {!Engine}.
    Insertion order is preserved among equal priorities so that events
    scheduled for the same instant run in the order they were scheduled —
    essential for deterministic simulation. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> priority:float -> 'a -> unit
(** Insert an element. O(log n). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, FIFO among ties.
    The queue keeps no reference to the removed element. O(log n). *)

val peek : 'a t -> (float * 'a) option
(** The minimum-priority element without removing it. O(1). *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit
