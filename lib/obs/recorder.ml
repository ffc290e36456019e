(* The flight recorder: the user-facing capture API over a
   {!Netsim.Trace.ring}.

   The ring itself — the preallocated scalar-array store the data plane
   writes into — lives in [Trace] so the emit fast path reaches it with
   a direct known-function call (no generic dispatch, no float boxing).
   This module owns everything cold: creation, attachment to a trace,
   tailing, and the JSONL dump. *)

open Netsim

type t = Trace.ring

let create ?sample_every ?seed ~capacity () =
  Trace.make_ring ?sample_every ?seed ~capacity ()

let capacity = Trace.ring_capacity
let seen = Trace.ring_seen
let kept = Trace.ring_kept
let length = Trace.ring_length
let sampled = Trace.ring_sampled
let note = Trace.ring_store_record
let clear = Trace.ring_clear
let install t trace = Trace.attach_ring trace t
let uninstall t trace = Trace.detach_ring trace t
let records = Trace.ring_records

let tail ?last t =
  let rs = records t in
  match last with
  | None -> rs
  | Some k ->
      if k < 0 then invalid_arg "Recorder.tail: negative count"
      else
        let n = List.length rs in
        if n <= k then rs else List.filteri (fun i _ -> i >= n - k) rs

let dump_jsonl oc t =
  let rs = records t in
  List.iter
    (fun r ->
      output_string oc (Export.line_of_record r);
      output_char oc '\n')
    rs;
  List.length rs
