type stats = {
  executed : int;
  pending : int;
  max_pending : int;
  truncated : int;
  sim_time : float;
  wall_time : float;
  cpu_time : float;
}

type t = {
  queue : (unit -> unit) Pqueue.t;
  (* The clock lives in a one-element floatarray rather than a mutable
     float field so consumers polled on every trace event (the trace
     fast path) can read it as an unboxed load through [clock_cell],
     with no accessor call and no float boxing. *)
  clock : floatarray;
  mutable executed : int;
  mutable max_pending : int;
  mutable truncated : int;
  mutable wall_time : float;
  mutable cpu_time : float;
  mutable observer : (stats -> unit) option;
}

let create () =
  {
    queue = Pqueue.create ();
    clock = Float.Array.make 1 0.0;
    executed = 0;
    max_pending = 0;
    truncated = 0;
    wall_time = 0.0;
    cpu_time = 0.0;
    observer = None;
  }

let now t = Float.Array.get t.clock 0
let clock_cell t = t.clock

let stats t =
  {
    executed = t.executed;
    pending = Pqueue.length t.queue;
    max_pending = t.max_pending;
    truncated = t.truncated;
    sim_time = Float.Array.get t.clock 0;
    wall_time = t.wall_time;
    cpu_time = t.cpu_time;
  }

let set_observer t f = t.observer <- f

let schedule t ~at f =
  let clk = Float.Array.get t.clock 0 in
  if at < clk then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now (%g)" at clk);
  Pqueue.add t.queue ~priority:at f;
  let depth = Pqueue.length t.queue in
  if depth > t.max_pending then t.max_pending <- depth

let after t delay f =
  if delay < 0.0 then invalid_arg "Engine.after: negative delay";
  schedule t ~at:(Float.Array.get t.clock 0 +. delay) f

let cancellable_after t delay f =
  let cancelled = ref false in
  after t delay (fun () -> if not !cancelled then f ());
  fun () -> cancelled := true

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (at, f) ->
      Float.Array.set t.clock 0 at;
      t.executed <- t.executed + 1;
      Prof.enter Prof.Dispatch;
      f ();
      Prof.leave Prof.Dispatch;
      true

let run ?until ?(max_events = 10_000_000) t =
  let wall_start = Unix.gettimeofday () in
  let cpu_start = Sys.time () in
  let events = ref 0 in
  let continue = ref true in
  while !continue && !events < max_events do
    match Pqueue.peek t.queue with
    | None -> continue := false
    | Some (at, _) -> (
        match until with
        | Some limit when at > limit ->
            Float.Array.set t.clock 0 limit;
            continue := false
        | _ ->
            ignore (step t);
            incr events)
  done;
  if !continue && !events >= max_events && not (Pqueue.is_empty t.queue)
  then begin
    (* The runaway guard fired: the run stopped with work still queued.
       Record it so callers (and the metrics layer) can see it. *)
    t.truncated <- t.truncated + 1;
    Logs.warn (fun m ->
        m "Engine.run: stopped after %d events with %d still pending"
          max_events (Pqueue.length t.queue))
  end;
  t.wall_time <- t.wall_time +. (Unix.gettimeofday () -. wall_start);
  t.cpu_time <- t.cpu_time +. (Sys.time () -. cpu_start);
  match t.observer with Some f -> f (stats t) | None -> ()

let pending t = Pqueue.length t.queue
let clear t = Pqueue.clear t.queue
