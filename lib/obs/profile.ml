(* The [profile] subcommand's report: exact counts of one workload's work,
   each per delivered datagram, beside one measured total.  Nothing here
   reads a clock. *)

open Netsim

let kinds =
  [|
    "send";
    "transmit";
    "forward";
    "deliver";
    "drop";
    "encapsulate";
    "decapsulate";
    "icmp-error";
  |]

let kind_index = function
  | Trace.Send _ -> 0
  | Trace.Transmit _ -> 1
  | Trace.Forward _ -> 2
  | Trace.Deliver _ -> 3
  | Trace.Drop _ -> 4
  | Trace.Encapsulate _ -> 5
  | Trace.Decapsulate _ -> 6
  | Trace.Icmp_error _ -> 7

type tally = int array

let tally () = Array.make (Array.length kinds) 0

let count tally (r : Trace.record) =
  let i = kind_index r.Trace.event in
  tally.(i) <- tally.(i) + 1

let kind_counts tally =
  Array.to_list (Array.mapi (fun i kind -> (kind, tally.(i))) kinds)

type t = {
  flows : int;
  delivered : int;
  expected : int;
  cpu_s : float;
  counts : (string * int) list;
}

let per_datagram t n =
  if t.delivered > 0 then float_of_int n /. float_of_int t.delivered else 0.0

let cpu_ns_per_datagram t =
  if t.delivered > 0 then t.cpu_s *. 1e9 /. float_of_int t.delivered else 0.0

let pp fmt t =
  Format.fprintf fmt
    "workload: %d concurrent flows, %d/%d datagrams delivered, %.0f ns host \
     CPU per datagram (a run with nothing attached)@."
    t.flows t.delivered t.expected (cpu_ns_per_datagram t);
  Format.fprintf fmt "== exact counts over the workload's Net.run ==@.";
  Format.fprintf fmt "  %-14s %10s %13s@." "count" "total" "per datagram";
  List.iter
    (fun (name, n) ->
      Format.fprintf fmt "  %-14s %10d %13.2f@." name n (per_datagram t n))
    t.counts;
  Format.fprintf fmt
    "  note: trace events are counted by kind by an observer on a second, \
     untimed run@."

let to_json t =
  Json.Obj
    [
      ("flows", Json.Int t.flows);
      ("delivered", Json.Int t.delivered);
      ("expected", Json.Int t.expected);
      ("cpu_ns_per_datagram", Json.Float (cpu_ns_per_datagram t));
      ( "counts",
        Json.List
          (List.map
             (fun (name, n) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("count", Json.Int n);
                   ("per_datagram", Json.Float (per_datagram t n));
                 ])
             t.counts) );
    ]
