(** Whole-trace aggregates: per-link byte accounting, drop and delivery
    statistics.  Each function folds the record list once. *)

val total_bytes : Netsim.Trace.t -> int

val backbone_bytes : Netsim.Trace.t -> int
(** Bytes on point-to-point links (names containing ["<->"]). *)

val bytes_on : Netsim.Trace.t -> link:string -> int

val drops_by_reason : Netsim.Trace.t -> (Netsim.Trace.drop_reason * int) list
val delivered_count : Netsim.Trace.t -> node:string -> int
