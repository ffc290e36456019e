open Netsim

type flow_cost = {
  delivered : bool;
  hops : int;
  wire_bytes : int;
  latency : float option;
  encap_depth : int;
}

let cost_of_flow net ~flow ~target =
  let trace = Net.trace net in
  let span = Netobs.Span.of_flow trace ~flow in
  (* Delivery and latency are relative to the experiment's target node, not
     just "anywhere", so they come from the (indexed) trace queries. *)
  let latency =
    match
      (span.Netobs.Span.send_time, Trace.delivery_time trace ~flow ~node:target)
    with
    | Some t0, Some t1 -> Some (t1 -. t0)
    | _ -> None
  in
  {
    delivered = Trace.delivered trace ~flow ~node:target;
    hops = span.Netobs.Span.transmissions;
    wire_bytes = span.Netobs.Span.wire_bytes;
    latency;
    encap_depth = span.Netobs.Span.encap_depth;
  }

let span_note net ~label ~flow =
  let span = Netobs.Span.of_flow (Net.trace net) ~flow in
  Format.asprintf "%s span: %a" label Netobs.Span.pp span

let fresh_trace net = Trace.clear (Net.trace net)
