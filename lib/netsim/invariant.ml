(* The online invariant oracle: named checks evaluated while a simulation
   runs, with every violation recorded against the simulation clock.

   Two check styles cover the properties the chaos harness needs:

   - polled checks run on a bounded periodic engine event (state that must
     always hold: binding lifetimes, proxy-ARP hygiene);
   - final checks run once at [finish] (eventual properties: recovery
     after the last fault).

   The engine is deliberately generic — it knows nothing about Mobile IP.
   Concrete invariants are built above the simulator (Scenarios.Oracle)
   from the state-exposure accessors of the mobility layer. *)

type violation = { name : string; time : float; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%8.3fs] %s: %s" v.time v.name v.detail

type check = { c_name : string; c_run : unit -> string option }

type t = {
  net : Net.t;
  mutable polled : check list;  (* reverse registration order *)
  mutable finals : check list;
  mutable rev_violations : violation list;  (* one per violated name *)
  mutable checks_run : int;
  mutable generation : int;  (* bumps on finish: stale ticks die *)
  mutable on_violation : (violation -> unit) option;
}

let create net =
  {
    net;
    polled = [];
    finals = [];
    rev_violations = [];
    checks_run = 0;
    generation = 0;
    on_violation = None;
  }

let set_on_violation t f = t.on_violation <- f

(* Keep the first violation of each invariant: a persistently-broken
   condition is one finding, not a flood. *)
let record_violation t ~time ~name ~detail =
  if not (List.exists (fun v -> String.equal v.name name) t.rev_violations)
  then begin
    let v = { name; time; detail } in
    t.rev_violations <- v :: t.rev_violations;
    match t.on_violation with Some f -> f v | None -> ()
  end

let add_check t ~name run = t.polled <- { c_name = name; c_run = run } :: t.polled
let add_final t ~name run = t.finals <- { c_name = name; c_run = run } :: t.finals

let run_checks t checks =
  let now = Net.now t.net in
  List.iter
    (fun c ->
      t.checks_run <- t.checks_run + 1;
      match c.c_run () with
      | Some detail -> record_violation t ~time:now ~name:c.c_name ~detail
      | None -> ())
    (List.rev checks)

let check_now t = run_checks t t.polled

let start t ?(interval = 1.0) ?(ticks = 60) () =
  if not (interval > 0.0) then
    invalid_arg "Invariant.start: interval must be positive";
  let eng = Net.engine t.net in
  let generation = t.generation in
  let rec tick remaining =
    if remaining > 0 && t.generation = generation then
      Engine.after eng interval (fun () ->
          if t.generation = generation then begin
            check_now t;
            tick (remaining - 1)
          end)
  in
  check_now t;
  tick ticks

let finish t =
  check_now t;
  run_checks t t.finals;
  t.generation <- t.generation + 1

let violations t = List.rev t.rev_violations
let violated t = t.rev_violations <> []

let checks_run t = t.checks_run
