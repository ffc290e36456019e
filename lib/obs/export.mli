(** Structured export: trace events and metric snapshots as JSON / JSONL.

    Trace events round-trip: [record_of_json (json_of_record r)] restores
    an equal record.  The packet inside each frame is carried as its real
    wire encoding (hex), so a decoded trace rebuilds full packets —
    checksums included — alongside the human-oriented summary fields
    ([src], [dst], [proto], [len]) that make the JSONL greppable. *)

val record_of_json : Netsim.Json.t -> (Netsim.Trace.record, string) result
val line_of_record : Netsim.Trace.record -> string
(** One JSONL line, no trailing newline. *)

val write_trace_jsonl : out_channel -> Netsim.Trace.t -> int
(** Write every record, one JSON object per line, oldest first.  Returns
    the number of lines written (= [Trace.length]). *)

val read_trace_jsonl : in_channel -> (Netsim.Trace.record list, string) result
(** Parse a JSONL stream produced by {!write_trace_jsonl}; blank lines are
    skipped. *)

val sink_to_channel : out_channel -> Netsim.Trace.record -> unit
(** Write one record as a JSONL line as it happens: an observer for
    {!Netsim.Trace.add_observer}, or a tap for {!Netsim.Net.with_tap},
    which streams telemetry from worlds the caller never sees (e.g.
    inside experiment runners). *)

val hex_of_bytes : Bytes.t -> string
val bytes_of_hex : string -> (Bytes.t, string) result
