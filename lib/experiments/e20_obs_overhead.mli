(** E20 — the observability overhead ladder on E18's capacity workload
    ({!E18_sim_capacity.workload}, 128 flows): nothing installed, the
    flight recorder, full JSONL export and pcap export.  Each rung is
    reported exactly, as minor words and bytes written per delivered
    packet, and in host time, as the CPU ns it adds per delivered packet
    over tracing-off and as a ratio of packets/sec against it. *)

type exact = {
  rung : string;  (** ["off"], ["recorder"], ["jsonl"] or ["pcap"] *)
  words_per_packet : float;
      (** minor-heap words the workload's [Net.run] allocates per
          delivered packet *)
  bytes_per_packet : float;
      (** bytes the rung's consumer writes per delivered packet: 0 for
          off and recorder *)
}

val exact : flows:int -> exact list
(** One run of every rung at [flows] flows, in ladder order. *)

val run : unit -> Table.t
