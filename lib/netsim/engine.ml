type stats = {
  executed : int;
  pending : int;
  max_pending : int;
  cancelled : int;
  truncated : int;
  sim_time : float;
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
  mutable cancelled : int;
  mutable truncated : int;
  mutable background : int;
      (* tickers armed by [every]; each keeps exactly one event queued *)
}

let create () =
  {
    queue = Pqueue.create ();
    clock = Float.Array.make 1 0.0;
    executed = 0;
    max_pending = 0;
    cancelled = 0;
    truncated = 0;
    background = 0;
  }

let now t = Float.Array.get t.clock 0
let clock_cell t = t.clock

let stats t =
  {
    executed = t.executed;
    pending = Pqueue.length t.queue;
    max_pending = t.max_pending;
    cancelled = t.cancelled;
    truncated = t.truncated;
    sim_time = Float.Array.get t.clock 0;
  }

let note_depth t =
  let depth = Pqueue.length t.queue in
  if depth > t.max_pending then t.max_pending <- depth

let schedule t ~at f =
  let clk = Float.Array.get t.clock 0 in
  (* Rejects NaN too, which keeps the queue's order total. *)
  if not (at >= clk) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: time is NaN"
       else
         Printf.sprintf "Engine.schedule: time %g is before now (%g)" at clk);
  Pqueue.add t.queue ~priority:at f;
  note_depth t

let check_delay delay =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.after: NaN delay"
       else "Engine.after: negative delay")

let after t delay f =
  check_delay delay;
  schedule t ~at:(Float.Array.get t.clock 0 +. delay) f

(* The event itself is the cancellation's target: [cancel] takes it out of
   the queue, so it never runs, never moves the clock and is not counted
   in [executed] or [pending]. *)
let cancellable_after t delay f =
  check_delay delay;
  let at = Float.Array.get t.clock 0 +. delay in
  let h = Pqueue.add_removable t.queue ~priority:at f in
  note_depth t;
  fun () -> if Pqueue.remove t.queue h then t.cancelled <- t.cancelled + 1

(* A ticker queues its next tick before it calls [f], so it holds exactly
   one queued event at every dispatch boundary, even after [f] raises:
   [background] counts the queued background events. *)
let every t interval f =
  if not (interval > 0.0) then
    invalid_arg
      (if Float.is_nan interval then "Engine.every: NaN interval"
       else "Engine.every: interval must be positive");
  let rec tick () =
    after t interval tick;
    f ()
  in
  t.background <- t.background + 1;
  after t interval tick

(* Run the earliest event.  The queue must not be empty.  Its time is
   read in place from the queue's priority array (an unboxed load, where
   a call returning the float would box it) and the pop returns no
   option, so a dispatch allocates nothing. *)
let dispatch t =
  Float.Array.unsafe_set t.clock 0
    (Float.Array.unsafe_get (Pqueue.priorities t.queue) 0);
  let f = Pqueue.pop_min t.queue in
  t.executed <- t.executed + 1;
  f ()

let step t =
  if Pqueue.is_empty t.queue then false
  else begin
    dispatch t;
    true
  end

(* Without [until], background events hold nothing open.  Their count is
   read on every iteration: any event may arm a ticker.  Returns whether
   the guard stopped the run with work left. *)
let run_unbounded t ~max_events =
  let q = t.queue in
  let events = ref 0 in
  while !events < max_events && Pqueue.length q > t.background do
    dispatch t;
    incr events
  done;
  Pqueue.length q > t.background

let run_until t ~limit ~max_events =
  let q = t.queue in
  let events = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !events < max_events do
    if Pqueue.is_empty q then stopped := true
    else if Float.Array.unsafe_get (Pqueue.priorities q) 0 > limit then begin
      (* The next event lies beyond [until]: advance the clock to
         [until], but never move it back. *)
      if limit > Float.Array.get t.clock 0 then
        Float.Array.set t.clock 0 limit;
      stopped := true
    end
    else begin
      dispatch t;
      incr events
    end
  done;
  (not !stopped) && not (Pqueue.is_empty q)

let run ?until ?(max_events = 10_000_000) t =
  let busy =
    match until with
    | None -> run_unbounded t ~max_events
    | Some limit -> run_until t ~limit ~max_events
  in
  if busy then begin
    (* The runaway guard fired: the run stopped with work still queued.
       Record it so callers (and the metrics layer) can see it. *)
    t.truncated <- t.truncated + 1;
    Logs.warn (fun m ->
        m "Engine.run: stopped after %d events with %d still pending"
          max_events (Pqueue.length t.queue))
  end

let pending t = Pqueue.length t.queue
