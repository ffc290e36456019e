(** E18 — simulator capacity: N concurrent UDP request/response flows
    across the standard roamed world with per-packet tracing gated off,
    reporting end-to-end packets/sec and engine events/sec of host CPU
    time.  Its workload is also E20's and the [profile] subcommand's. *)

val exchanges_per_flow : int

type run = {
  delivered : int;  (** datagrams received end to end, both directions *)
  expected : int;
  events : int;  (** engine events the workload's [Net.run] dispatched *)
  route_lookups : int;  (** {!Netsim.Net.route_lookups} over that run *)
  hook_calls : int;  (** {!Netsim.Net.hook_calls} over that run *)
  cpu_s : float;  (** host CPU seconds of that run, read with [Sys.time] *)
  minor_words : float;
      (** minor-heap words allocated over that run, read with
          [Gc.minor_words] *)
}

val workload :
  ?record_rtt:(float -> unit) ->
  flows:int ->
  install:(Netsim.Net.t -> unit -> unit) ->
  unit ->
  run
(** Build and roam the standard world, gate its tracing off, call
    [install] on it, then run [flows] concurrent ping-pong flows of
    {!exchanges_per_flow} exchanges (256-byte requests, 512-byte
    replies, starts 3 ms apart) to quiescence.  [install] may attach
    telemetry consumers and returns their teardown, called after the
    run.  [record_rtt] receives each exchange's simulated round trip in
    ms; its stamping is not free, so timed runs leave it out.  Every
    count in the result is the same whatever [install] attaches; the CPU
    time and the minor words include what the attached consumers cost. *)

val nothing : Netsim.Net.t -> unit -> unit
(** The [install] that attaches nothing. *)

val profile : ?flows:int -> unit -> Netobs.Profile.t
(** The [profile] subcommand's report on {!workload} with [flows]
    (default 128, the top load level): the counts and CPU time of a run
    with nothing attached, and the trace events by kind and the wire
    bytes of a second, untimed run with a counting observer. *)

val run : unit -> Table.t
