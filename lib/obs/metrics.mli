(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) update.

    A {!registry} is an independent namespace; the CLI, tests and bench
    harness each create their own so snapshots are deterministic and never
    leak state between runs.  Lookup functions ([counter], [gauge],
    [histogram]) are find-or-create: asking twice for the same name
    returns the same instrument, so call sites can be written without
    threading instrument handles around.

    Snapshots are sorted by metric name, so rendering (human table or
    JSON) is deterministic regardless of registration order. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> ?help:string -> string -> counter
(** @raise Invalid_argument if the name is registered as another kind. *)

val gauge : registry -> ?help:string -> string -> gauge

val histogram : registry -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; values
    above the last bound land in an overflow bucket.  The default is
    1, 2, 5, 10, 20, 50, 100, 200, 500 and 1000 (latency in ms).
    [buckets] is only consulted on first creation.
    @raise Invalid_argument on empty or non-increasing bounds, or a kind
    clash. *)

(** {1 Updates — all O(1) (histograms are O(#buckets), a constant)} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_view = {
  buckets : (float * int) array;  (** (upper bound, count) — not cumulative *)
  overflow : int;
  count : int;
  sum : float;
  minimum : float;  (** 0 when empty *)
  maximum : float;  (** 0 when empty *)
}

type value = Counter of int | Gauge of float | Histogram of hist_view
type sample = { name : string; help : string; value : value }

val percentile : hist_view -> float -> float
(** [percentile h p] estimates the [p]-th percentile ([0..100], clamped)
    by linear interpolation inside the bucket holding the target rank.
    The first bucket's lower edge is the observed minimum and the
    overflow bucket's upper edge the observed maximum, so estimates stay
    within [[minimum, maximum]].  0 on an empty histogram. *)

val snapshot : registry -> sample list
(** Sorted by name. *)

val pp_snapshot : Format.formatter -> sample list -> unit
(** Human-readable table; histograms get a second line with their bucket
    counts. *)

val snapshot_to_json : sample list -> Netsim.Json.t
(** [{"metrics": [{"name": ..., "type": ..., "value"| histogram fields}]}] *)
