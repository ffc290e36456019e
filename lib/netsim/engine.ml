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
  mutable seq : int;
      (* the next event's sequence number, heap or lane: one counter
         orders both *)
  mutable lanes : lane array;  (* at most [max_lanes], oldest first *)
  (* Queued events, counted here rather than asked of [queue]: dune's dev
     profile compiles each module opaquely, so every [Pqueue] call is a
     real call, and dispatch makes as few as it can. *)
  mutable in_heap : int;
  mutable in_lanes : int;
  next_at : floatarray;  (* the time of the event [next] last found *)
  mutable executed : int;
  mutable max_pending : int;
  mutable cancelled : int;
  mutable truncated : int;
  mutable background : int;
      (* tickers armed by [every]; each keeps exactly one event queued *)
}

(* A ring of events that all run [delay] after they were appended, in
   append order.  The clock never moves back and adding [delay] to it is
   monotone, so append order is (time, seq) order and the head is the
   lane's earliest event.  Live entries are [head .. head + len) modulo
   the capacity, a power of two; the arrays are empty until the first
   append. *)
and lane = {
  engine : t;
  delay : float;
  mutable times : floatarray;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
}

let max_lanes = 8

let create () =
  {
    queue = Pqueue.create ();
    clock = Float.Array.make 1 0.0;
    seq = 0;
    lanes = [||];
    in_heap = 0;
    in_lanes = 0;
    next_at = Float.Array.make 1 0.0;
    executed = 0;
    max_pending = 0;
    cancelled = 0;
    truncated = 0;
    background = 0;
  }

let now t = Float.Array.get t.clock 0
let clock_cell t = t.clock
let pending t = t.in_heap + t.in_lanes

let stats t =
  {
    executed = t.executed;
    pending = pending t;
    max_pending = t.max_pending;
    cancelled = t.cancelled;
    truncated = t.truncated;
    sim_time = Float.Array.get t.clock 0;
  }

let note_depth t =
  let depth = pending t in
  if depth > t.max_pending then t.max_pending <- depth

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let schedule t ~at f =
  let clk = Float.Array.get t.clock 0 in
  (* Rejects NaN too, which keeps the queue's order total. *)
  if not (at >= clk) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: time is NaN"
       else
         Printf.sprintf "Engine.schedule: time %g is before now (%g)" at clk);
  Pqueue.add t.queue ~priority:at ~seq:(next_seq t) f;
  t.in_heap <- t.in_heap + 1;
  note_depth t

let check_delay fn delay =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then fn ^ ": NaN delay"
       else fn ^ ": negative delay")

let after t delay f =
  check_delay "Engine.after" delay;
  schedule t ~at:(Float.Array.get t.clock 0 +. delay) f

(* The event itself is the cancellation's target: [cancel] takes it out of
   the queue, so it never runs, never moves the clock and is not counted
   in [executed] or [pending]. *)
let cancellable_after t delay f =
  check_delay "Engine.after" delay;
  let at = Float.Array.get t.clock 0 +. delay in
  let h = Pqueue.add_removable t.queue ~priority:at ~seq:(next_seq t) f in
  t.in_heap <- t.in_heap + 1;
  note_depth t;
  fun () ->
    if Pqueue.remove t.queue h then begin
      t.in_heap <- t.in_heap - 1;
      t.cancelled <- t.cancelled + 1
    end

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

(* ---- lanes ---- *)

(* Filler for every vacant lane slot, so a lane never keeps a run
   event's closure (and what it captured) reachable. *)
let vacant () = ()

(* Every link a world makes asks for a lane: find it (or the slot for a
   new one) without a closure. *)
let rec find_lane lanes delay i =
  if i = Array.length lanes || (Array.unsafe_get lanes i).delay = delay then i
  else find_lane lanes delay (i + 1)

let lane t ~delay =
  check_delay "Engine.lane" delay;
  let i = find_lane t.lanes delay 0 in
  if i < Array.length t.lanes then Some t.lanes.(i)
  else if i = max_lanes then None
  else begin
    let l =
      {
        engine = t;
        delay;
        times = Float.Array.create 0;
        seqs = [||];
        fns = [||];
        head = 0;
        len = 0;
      }
    in
    t.lanes <- Array.append t.lanes [| l |];
    Some l
  end

(* Double the ring (to 16 on the first append), unwrapping its entries
   to the front of the new arrays. *)
let grow_lane l =
  let cap = Array.length l.fns in
  let capacity = max 16 (2 * cap) in
  let times = Float.Array.create capacity in
  let seqs = Array.make capacity 0 in
  let fns = Array.make capacity vacant in
  for k = 0 to l.len - 1 do
    let j = (l.head + k) land (cap - 1) in
    Float.Array.set times k (Float.Array.get l.times j);
    seqs.(k) <- l.seqs.(j);
    fns.(k) <- l.fns.(j)
  done;
  l.times <- times;
  l.seqs <- seqs;
  l.fns <- fns;
  l.head <- 0

let append l f =
  if l.len = Array.length l.fns then grow_lane l;
  let t = l.engine in
  let i = (l.head + l.len) land (Array.length l.fns - 1) in
  Float.Array.unsafe_set l.times i
    (Float.Array.unsafe_get t.clock 0 +. l.delay);
  Array.unsafe_set l.seqs i (next_seq t);
  Array.unsafe_set l.fns i f;
  l.len <- l.len + 1;
  t.in_lanes <- t.in_lanes + 1;
  note_depth t

(* ---- dispatch ---- *)

(* Where the earliest queued event sits: a lane's index, [heap], or
   [none] when nothing is queued; its time is left in [next_at].  The
   lanes' heads and the heap's top are the candidates, and the least
   (time, seq) wins: the order one heap holding every event would give.
   Keys are read in place, so the scan allocates nothing, and the heap's
   seq is read only on a tie. *)
let heap = -1
let none = -2

let next t =
  let best = ref none and best_time = ref 0.0 and best_seq = ref 0 in
  if t.in_lanes > 0 then begin
    let lanes = t.lanes in
    for i = 0 to Array.length lanes - 1 do
      let l = Array.unsafe_get lanes i in
      if l.len > 0 then begin
        let time = Float.Array.unsafe_get l.times l.head in
        let seq = Array.unsafe_get l.seqs l.head in
        if
          !best = none || time < !best_time
          || (time = !best_time && seq < !best_seq)
        then begin
          best := i;
          best_time := time;
          best_seq := seq
        end
      end
    done
  end;
  if t.in_heap > 0 then begin
    let q = t.queue in
    let time = Float.Array.unsafe_get (Pqueue.priorities q) 0 in
    if
      !best = none || time < !best_time
      || (time = !best_time && Array.unsafe_get (Pqueue.seqs q) 0 < !best_seq)
    then begin
      best := heap;
      best_time := time
    end
  end;
  Float.Array.unsafe_set t.next_at 0 !best_time;
  !best

(* Run the event [next] just found at [src], which is not [none].  The
   heap's pop returns no option and a lane's pop clears its slot, so a
   dispatch allocates nothing and keeps no closure. *)
let dispatch t src =
  Float.Array.unsafe_set t.clock 0 (Float.Array.unsafe_get t.next_at 0);
  t.executed <- t.executed + 1;
  if src = heap then begin
    t.in_heap <- t.in_heap - 1;
    (Pqueue.pop_min t.queue) ()
  end
  else begin
    let l = Array.unsafe_get t.lanes src in
    let h = l.head in
    let f = Array.unsafe_get l.fns h in
    Array.unsafe_set l.fns h vacant;
    l.head <- (h + 1) land (Array.length l.fns - 1);
    l.len <- l.len - 1;
    t.in_lanes <- t.in_lanes - 1;
    f ()
  end

let step t =
  let src = next t in
  if src = none then false
  else begin
    dispatch t src;
    true
  end

(* Without [until], background events hold nothing open.  Their count is
   read on every iteration: any event may arm a ticker.  Returns whether
   the guard stopped the run with work left. *)
let run_unbounded t ~max_events =
  let events = ref 0 in
  while !events < max_events && pending t > t.background do
    dispatch t (next t);
    incr events
  done;
  pending t > t.background

let run_until t ~limit ~max_events =
  let events = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !events < max_events do
    let src = next t in
    if src = none then stopped := true
    else if Float.Array.unsafe_get t.next_at 0 > limit then begin
      (* The next event lies beyond [until]: advance the clock to
         [until], but never move it back. *)
      if limit > Float.Array.get t.clock 0 then
        Float.Array.set t.clock 0 limit;
      stopped := true
    end
    else begin
      dispatch t src;
      incr events
    end
  done;
  (not !stopped) && pending t > 0

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
          max_events (pending t))
  end
