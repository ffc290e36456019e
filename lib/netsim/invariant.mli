(** The online invariant oracle: named checks evaluated while a
    simulation runs.

    An oracle attaches to a {!Net.t} and evaluates two styles of check:

    - {e polled} checks ({!add_check}) run when {!start}'s bounded
      periodic tick fires, at every {!check_now}, and once at {!finish} —
      conditions that must always hold (binding lifetimes, cache and
      proxy-ARP hygiene, selector discipline);
    - {e final} checks ({!add_final}) run once at {!finish} — eventual
      properties (recovery after the last fault of a plan).

    A check returns [Some detail] to report a violation.  Each invariant
    is recorded at the simulation time of its {e first} violation, so a
    persistently-broken condition is one finding, not a flood.

    The engine knows nothing about Mobile IP: concrete invariants are
    built above the simulator (e.g. [Scenarios.Oracle]) from the mobility
    layer's state-exposure accessors. *)

type violation = { name : string; time : float; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : Net.t -> t

val add_check : t -> name:string -> (unit -> string option) -> unit
(** Register a polled check. *)

val add_final : t -> name:string -> (unit -> string option) -> unit
(** Register a check run once, at {!finish}. *)

val set_on_violation : t -> (violation -> unit) option -> unit
(** Install (or clear) a callback fired at the {e first} violation of
    each invariant, as it is recorded — the hook a flight recorder uses
    to snapshot the events leading up to a failure before the run moves
    on.  Repeat violations of the same invariant do not re-fire. *)

val start : t -> ?interval:float -> ?ticks:int -> unit -> unit
(** Run the polled checks now and then every [interval] simulated seconds
    (default 1) for [ticks] periods (default 60).  The ticks are the
    observation window: they are ordinary events, so a run lasts at least
    [ticks *. interval] seconds and a check still sees what happens after
    the traffic stops, such as a binding outliving its lifetime.  Unlike
    a background housekeeping tick ({!Engine.every}), the window has to
    hold the run open, and so it needs an end.
    @raise Invalid_argument unless [interval > 0] (NaN included). *)

val check_now : t -> unit
(** Run every polled check immediately. *)

val finish : t -> unit
(** Run the polled checks one last time, then the final checks, and stop
    the periodic tick. *)

val violations : t -> violation list
(** First violation of each invariant, in order of occurrence. *)

val violated : t -> bool

val checks_run : t -> int
