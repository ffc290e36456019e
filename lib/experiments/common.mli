(** Shared measurement helpers for the experiment modules. *)

type flow_cost = {
  delivered : bool;
  hops : int;  (** link traversals *)
  wire_bytes : int;
  latency : float option;
  encap_depth : int;  (** deepest tunneling nesting the flow experienced *)
}

val cost_of_flow : Netsim.Net.t -> flow:int -> target:string -> flow_cost
(** Derived from the flow's [Netobs.Span]; [delivered] and [latency] are
    relative to [target]. *)

val span_note : Netsim.Net.t -> label:string -> flow:int -> string
(** A one-line per-flow span summary suitable for a table's notes. *)

val fresh_trace : Netsim.Net.t -> unit
(** Clear the trace between measurement phases. *)
