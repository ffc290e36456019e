(** E16 - handover churn and fault injection across the 4x4 grid. *)

type cell_result = {
  cell : Mobileip.Grid.cell;
  probes_sent : int;
  probes_delivered : int;  (** probes that arrived at the mobile host *)
  replies_delivered : int;  (** echoes back at the correspondent *)
  lost : int;
  move1_recovery : float option;
      (** seconds from the first handover to the next delivered probe *)
  move2_recovery : float option;
  crash_recovery : float option;
      (** seconds from the home agent's restart to the next delivered
          probe *)
  reg_transmissions : int;
      (** registration requests the churn cost (retries included) *)
  fault : Netsim.Fault.stats;
}

val run_cell : Mobileip.Grid.cell -> cell_result
(** Run one cell's thirty-second probe stream on a fresh world under the
    standard fault plan (two handovers, duplication, a LAN flap, a latency
    spike, reordering, a home-agent crash/restart, a partition), with
    fault seed [0x16c4].  Same cell, same result.  Also used by the
    [stats] CLI to populate the churn counters and recovery histogram. *)

val run : unit -> Table.t
(** Build the experiment's world(s), run the measurement, and return the
    result table. *)
