(** Rendering for {!Netsim.Prof} snapshots — the [profile] subcommand's
    output. *)

val pp : Format.formatter -> Netsim.Prof.entry list -> unit
(** A table sorted by self time, descending: category, call count, self
    and total milliseconds, and each category's share of the summed self
    time. *)

val to_json : Netsim.Prof.entry list -> Netsim.Json.t
(** [{"profile": [{"category", "calls", "self_s", "total_s"}...]}],
    sorted by self time, descending. *)
