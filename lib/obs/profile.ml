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

type tally = { by_kind : int array; mutable wire_bytes : int }

let tally () = { by_kind = Array.make (Array.length kinds) 0; wire_bytes = 0 }

let count tally (r : Trace.record) =
  let i = kind_index r.Trace.event in
  tally.by_kind.(i) <- tally.by_kind.(i) + 1;
  match r.Trace.event with
  | Trace.Transmit { bytes; _ } -> tally.wire_bytes <- tally.wire_bytes + bytes
  | _ -> ()

let kind_counts tally =
  Array.to_list (Array.mapi (fun i kind -> (kind, tally.by_kind.(i))) kinds)

let wire_bytes tally = tally.wire_bytes

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
    "  note: trace events (and the bytes of every transmit) are counted by \
     an observer on a second, untimed run@."

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
