(** The [profile] subcommand's report: exact counts of the work one
    workload's [Net.run] does, each also per delivered datagram, and one
    measured total, the host CPU time per datagram of a run with nothing
    attached.  Counts are exact and do not depend on what is attached;
    per-layer cost is not estimated here. *)

(** {1 Trace events by kind} *)

type tally
(** Trace records counted by kind, and the bytes of the transmits among
    them. *)

val tally : unit -> tally

val count : tally -> Netsim.Trace.record -> unit
(** Count one record: a trace observer ({!Netsim.Trace.add_observer}). *)

val kind_counts : tally -> (string * int) list
(** One entry per event kind, zeros included, in a fixed order: send,
    transmit, forward, deliver, drop, encapsulate, decapsulate,
    icmp-error (the kinds' JSONL names). *)

val wire_bytes : tally -> int
(** The sum of the counted [Transmit] records' [bytes]: every byte the
    workload put on a link, fragments and encapsulation included. *)

(** {1 Reports} *)

type t = {
  flows : int;  (** concurrent flows of the workload *)
  delivered : int;  (** datagrams delivered end to end *)
  expected : int;
  cpu_s : float;  (** host CPU seconds of the run with nothing attached *)
  counts : (string * int) list;  (** name and exact count, in report order *)
}

val pp : Format.formatter -> t -> unit
(** A header line (flows, delivered/expected, CPU ns per datagram), then
    one row per count: name, total and per delivered datagram. *)

val to_json : t -> Netsim.Json.t
(** [{"flows", "delivered", "expected", "cpu_ns_per_datagram",
    "counts": [{"name", "count", "per_datagram"}...]}]. *)
