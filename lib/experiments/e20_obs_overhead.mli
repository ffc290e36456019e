(** E20 — the observability overhead ladder: packets/sec on E18's
    capacity workload ({!E18_sim_capacity.workload}, 128 flows) with
    nothing installed, the flight recorder (full and 1-in-N sampled),
    full JSONL export and pcap export, each rung reported as the host
    CPU ns it adds per delivered packet over tracing-off, and as a ratio
    of packets/sec against it. *)

val run : unit -> Table.t
