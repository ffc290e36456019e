(** The chaos soak harness (experiment E17 and the [soak] subcommand).

    Sweeps seeds x grid cells x topology depths: each seed derives a
    world, a randomized {!Netsim.Fault.plan} (via {!Netsim.Chaos}) and a
    workload (a monitored TCP byte stream plus registration keepalive)
    run under the {!Scenarios.Oracle} invariants.  A run that violates an
    invariant is delta-debugged down to a minimal plan that still
    violates the same invariants, and the minimal plan serialises to a
    repro file replayable with [--fault-json].

    Everything is a pure function of the seed: two sweeps over the same
    range produce identical findings and identical shrunken repros. *)

type profile = {
  events : int;  (** fault events per generated plan *)
  horizon : float;  (** scripted activity ends by this sim time *)
  max_window : float;  (** longest single fault window *)
  outages : float list;  (** candidate ha_outage durations, seconds *)
  mh_lifetime : int;  (** registration lifetime the MH requests *)
  max_renewals : int;  (** keepalive renewal budget *)
  retry_limit : int;  (** registration transmissions before giving up *)
  with_standby : bool;
      (** pair a hot-standby home agent (tight 0.5 s/1 s detection), so
          [ha_outage] actions exercise takeover and failback under the
          ha-failover-recovery invariant *)
}

val gentle : profile
(** The default soak profile: short outages against a generous renewal
    budget and a standby home agent — a healthy implementation passes
    every invariant, so the CI smoke sweep stays green unless something
    regresses. *)

val harsh : profile
(** The E17 profile: home-agent outages long enough to exhaust a small
    renewal budget, so some seeds genuinely strand the mobile host — the
    violations the shrinker then minimises. *)

type outcome = {
  violations : Netsim.Invariant.violation list;
  checks_run : int;
  tcp_retx_aborts : int;
      (** connections that gave up retransmitting during this run (the
          [tcp_retx_aborted_total] counter) *)
  fault : Netsim.Fault.stats;
  recorder_tail : Netsim.Trace.record list;
      (** the flight-recorder snapshot at the first invariant violation —
          the last events (up to the recorder capacity) leading up to the
          failure; [[]] when the run passed *)
}

type finding = {
  f_seed : int;
  f_cell : Mobileip.Grid.cell;
  f_plan : Netsim.Fault.plan;  (** as generated *)
  f_outcome : outcome;
  f_shrunk : Netsim.Fault.plan;  (** the minimal still-failing plan *)
  f_replays : int;  (** replays the shrink spent *)
}

type report = {
  seed_lo : int;
  seed_hi : int;
  cells : Mobileip.Grid.cell list;
  runs : int;
  total_checks : int;
  total_retx_aborts : int;
  findings : finding list;
}

val default_cells : Mobileip.Grid.cell list
(** In-IE/Out-IE, In-DE/Out-DE, In-DH/Out-DH: the diagonal of the useful
    grid, covering tunnel-both-ways, mobile-aware and same-segment
    delivery. *)

val generate_plan :
  ?profile:profile ->
  cell:Mobileip.Grid.cell ->
  seed:int ->
  unit ->
  Netsim.Fault.plan
(** The plan a soak run with this (seed, cell) would execute.  It depends
    on the seed and the profile only — the seed's backbone depth names
    the links and cuts ({!Scenarios.Topo.chaos_links}), so no world is
    built; [cell] does not change the plan. *)

val replay :
  ?profile:profile ->
  cell:Mobileip.Grid.cell ->
  seed:int ->
  Netsim.Fault.plan ->
  outcome
(** Build the (seed, cell) world, apply the plan and run to completion
    under the oracle.  Deterministic.

    The run flies without the flight recorder.  Only a run that violates
    is flown again, with the recorder attached, to fill
    [recorder_tail]; the outcome returned is the re-flight's.  When the
    world is observed (a {!Netsim.Net.with_tap} tap such as [--pcap] or
    [--trace-json]) the run records in flight instead and is not
    re-flown, so the tap sees it once.
    @raise Invalid_argument on an action {!repro_of_string} rejects.
    @raise Failure if the re-flight does not reproduce the first
    flight's violations. *)

val shrink_plan :
  ?profile:profile ->
  cell:Mobileip.Grid.cell ->
  seed:int ->
  Netsim.Fault.plan ->
  outcome ->
  Netsim.Fault.plan * int
(** Delta-debug a failing plan: the reduced plan still violates every
    invariant the given outcome violated.  Returns the plan and the
    number of replays spent.  No replay carries the flight recorder. *)

val run :
  ?profile:profile ->
  ?seed_lo:int ->
  ?seed_hi:int ->
  ?cells:Mobileip.Grid.cell list ->
  ?shrink:bool ->
  unit ->
  report
(** The sweep (defaults: gentle profile, seeds 0..4, {!default_cells},
    shrinking on).  @raise Invalid_argument on an empty seed range. *)

val violated_names : outcome -> string list
(** Distinct violated invariant names, sorted. *)

(** {1 Repro files} *)

val repro_to_string : seed:int -> cell:Mobileip.Grid.cell -> Netsim.Fault.plan -> string
(** A fault-plan JSON annotated with the producing run ([soak_seed],
    [cell]); still loadable by {!Netsim.Fault.plan_of_string}, which
    ignores the annotations. *)

val repro_of_string :
  string ->
  (Netsim.Fault.plan * int option * Mobileip.Grid.cell option, string) result
(** Parse a repro (or any plain plan JSON): the plan plus the soak seed
    and cell annotations when present.  Its actions must be the soak's
    vocabulary: [ha_outage] with a finite number of seconds >= 0, or
    [mh_move] with [a] or [b]; anything else is an error naming the
    action's kind, argument and time. *)

val cell_of_string : string -> Mobileip.Grid.cell option
(** Parse ["In-IE/Out-IE"]-style names (as {!Mobileip.Grid.cell_to_string}
    prints). *)

(** {1 The E17 table} *)

val run_table : unit -> report * Table.t
(** The harsh-profile sweep behind experiment E17, with its rendered
    table. *)
