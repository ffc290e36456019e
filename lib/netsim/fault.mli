(** Deterministic, scriptable fault injection.

    A fault plan attaches to a {!Net.t} (via {!Net.set_fault_hook}) and
    scripts network pathologies at absolute simulation times: link flaps,
    partitions between node sets, latency spikes, packet duplication and
    reordering windows.  Higher layers add agent crash/restart through the
    generic {!at} hook.

    Everything is deterministic: window transitions are engine events, and
    the probabilistic effects (duplication, reordering jitter) draw from a
    seeded generator — two runs of the same plan with the same seed replay
    identically.  Drops caused by the plan appear in the {!Trace} with the
    dedicated [Link_flap] and [Partitioned] reasons, so they are visible in
    [--trace-json] exports and Netobs counters. *)

type t

val attach : ?seed:int -> Net.t -> t
(** Attach a fresh (empty) fault plan to the network, installing its fault
    hook.  Replaces any previously attached plan.  Default seed
    [0xfa17]. *)

val detach : t -> unit
(** Remove the plan's hook; scheduled window transitions still fire but no
    longer affect delivery. *)

(** {1 Scripted faults}

    All times are absolute simulation times.  A time at or before "now"
    takes effect immediately. *)

val link_down : t -> at:float -> link:string -> unit
(** Take a link (segment name or point-to-point link name) down: every
    frame copy on it is dropped with reason [Link_flap]. *)

val flap : t -> link:string -> down:float -> up:float -> unit
(** [flap t ~link ~down ~up] = [link_down] at [down], and the link back
    up at [up].  @raise Invalid_argument if [up <= down]. *)

val partition :
  t -> from_:float -> until:float -> a:string list -> b:string list -> unit
(** During the window, frames transmitted by a node named in [a] toward a
    node named in [b] (or vice versa) are dropped with reason
    [Partitioned].  @raise Invalid_argument on an empty window. *)

val latency_spike :
  t -> link:string -> from_:float -> until:float -> extra:float -> unit
(** Add [extra] seconds to every delivery on the link during the window.
    Overlapping spikes on the same link accumulate.
    @raise Invalid_argument on an empty window or negative [extra]. *)

val duplicate_window : t -> from_:float -> until:float -> rate:float -> unit
(** During the window each delivered frame copy is duplicated with
    probability [rate] (seeded).  The most recent window wins if windows
    overlap.  @raise Invalid_argument unless [0 <= rate < 1]. *)

val reorder_window :
  t -> from_:float -> until:float -> rate:float -> max_extra:float -> unit
(** During the window each frame copy is delayed, with probability [rate],
    by a seeded extra delay uniform in [0, max_extra) — enough to overtake
    later frames and reorder the stream.
    @raise Invalid_argument unless [0 <= rate < 1] and [max_extra > 0]. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Add an arbitrary scripted action to the plan (agent crash/restart,
    route changes...).  Runs immediately when [time] is not in the
    future. *)

(** {1 Declarative plans}

    A fault plan as data: what the {!Chaos} generator produces, the
    delta-debugging shrinker edits, and [--fault-json] repro files store.
    {!apply} funnels every event through the imperative API above, so a
    declarative plan and the equivalent sequence of calls behave
    identically — and replaying a plan with the same seed reproduces a run
    exactly.

    [Action] events are opaque to this module: an (at, kind, arg) triple
    the applying layer interprets (agent crash/restart, handover
    triggers...), so the simulator core stays ignorant of Mobile IP. *)

type event =
  | Flap of { link : string; down : float; up : float }
  | Partition of { from_ : float; until : float; a : string list; b : string list }
  | Latency_spike of { link : string; from_ : float; until : float; extra : float }
  | Duplicate of { from_ : float; until : float; rate : float }
  | Reorder of { from_ : float; until : float; rate : float; max_extra : float }
  | Action of { at_ : float; kind : string; arg : string }

type plan = { seed : int; events : event list }

val event_start : event -> float
val event_end : event -> float

val plan_end : plan -> float
(** Latest end time over the plan's events; [0] for an empty plan.  After
    this instant no scripted fault is active (scheduled restarts
    included), which is where the eventual-recovery clock starts. *)

val apply :
  ?action:(at:float -> kind:string -> arg:string -> unit) ->
  Net.t ->
  plan ->
  t
(** Attach the plan to the network: seed the generator with [plan.seed]
    and script every event.  [Action] events call [?action] (default:
    ignore) at their scheduled time.
    @raise Invalid_argument on an ill-formed event (empty window, bad
    rate...), like the imperative API. *)

val plan_to_json : plan -> Json.t
(** Round-trips: [plan_of_json (plan_to_json p) = Ok p]. *)

val plan_of_json : Json.t -> (plan, string) result
val plan_to_string : plan -> string
val plan_of_string : string -> (plan, string) result

(** {1 Statistics} *)

type stats = {
  flap_drops : int;  (** frame copies dropped on scripted-down links *)
  partition_drops : int;  (** frame copies dropped crossing a partition *)
  duplicated : int;  (** extra copies injected by duplication windows *)
  delayed : int;  (** copies given reordering jitter *)
}

val stats : t -> stats
