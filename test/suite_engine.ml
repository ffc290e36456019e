(* The priority queue and the discrete-event engine: ordering, FIFO ties,
   removal and cancellation, bounded runs, determinism. *)

open Netsim

(* The queue orders equal priorities by a number its caller gives each
   element; the engine numbers its events from one counter, and so do
   these tests. *)
let last_seq = ref 0

let add q ~priority v =
  incr last_seq;
  Pqueue.add q ~priority ~seq:!last_seq v

let add_removable q ~priority v =
  incr last_seq;
  Pqueue.add_removable q ~priority ~seq:!last_seq v

let test_pqueue_orders () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> add q ~priority:p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "min first" [ "z"; "a"; "b"; "c" ]
    (List.rev !order)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    add q ~priority:1.0 i
  done;
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order among ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_pqueue_peek_stable () =
  let q = Pqueue.create () in
  add q ~priority:2.0 "b";
  add q ~priority:1.0 "a";
  (match Pqueue.peek q with
  | Some (p, v) ->
      Alcotest.(check string) "peek min" "a" v;
      Alcotest.(check (float 0.0)) "priority" 1.0 p
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "peek does not remove" 2 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> add q ~priority:p i) priorities;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare priorities)

(* The full contract, including FIFO ties and reuse after [clear]: popping
   yields elements in (priority, insertion sequence) order.  The model is
   a stable sort of the insertions by priority. *)
let prop_pqueue_priority_seq_order =
  QCheck.Test.make ~name:"pqueue pops in (priority, seq) order, incl. clear"
    ~count:300
    QCheck.(
      pair
        (list (int_bound 7))  (* coarse priorities force plenty of ties *)
        (list (int_bound 7)))
    (fun (first_batch, second_batch) ->
      let q = Pqueue.create () in
      let run batch =
        List.iteri
          (fun i p -> add q ~priority:(float_of_int p) (p, i))
          batch;
        let rec drain acc =
          match Pqueue.pop q with
          | Some (_, v) -> drain (v :: acc)
          | None -> List.rev acc
        in
        let drained = drain [] in
        let model =
          List.stable_sort
            (fun (p1, _) (p2, _) -> compare p1 p2)
            (List.mapi (fun i p -> (p, i)) batch)
        in
        drained = model
      in
      let ok1 = run first_batch in
      (* Interrupt mid-stream, clear, and make sure the emptied queue
         behaves like a fresh one. *)
      List.iteri (fun i p -> add q ~priority:(float_of_int p) (p, i))
        first_batch;
      ignore (Pqueue.pop q);
      Pqueue.clear q;
      let ok_cleared = Pqueue.is_empty q && Pqueue.pop q = None in
      let ok2 = run second_batch in
      ok1 && ok_cleared && ok2)

(* Interleaved adds, pops and clears against a model: the pending
   elements in insertion order, of which a pop must return the first
   after a stable sort by priority.  Coarse priorities force ties; long
   runs of adds grow the arrays, and pops between adds recycle slots. *)
type pq_op = Push of int | Pop_one | Clear_all

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun p -> Push p) (int_bound 7));
        (4, return Pop_one);
        (1, map (fun n -> if n = 0 then Clear_all else Pop_one) (int_bound 30));
      ])

let print_pq_op = function
  | Push p -> Printf.sprintf "push %d" p
  | Pop_one -> "pop"
  | Clear_all -> "clear"

let prop_pqueue_interleaved =
  QCheck.Test.make
    ~name:"pqueue interleaved add/pop/clear = stable sort by priority"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_pq_op ops))
       QCheck.Gen.(list_size (0 -- 400) pq_op_gen))
    (fun ops ->
      let q = Pqueue.create () in
      let pending = ref [] (* insertion order *) and next = ref 0 in
      let model_pop () =
        match
          List.stable_sort (fun (p1, _) (p2, _) -> compare p1 p2) !pending
        with
        | [] -> None
        | ((p, _) as top) :: _ ->
            pending := List.filter (fun e -> e <> top) !pending;
            Some (float_of_int p, top)
      in
      let step = function
        | Push p ->
            add q ~priority:(float_of_int p) (p, !next);
            pending := !pending @ [ (p, !next) ];
            incr next;
            Pqueue.length q = List.length !pending
        | Pop_one ->
            let expected = model_pop () in
            Pqueue.pop q = expected
        | Clear_all ->
            Pqueue.clear q;
            pending := [];
            Pqueue.is_empty q && Pqueue.pop q = None
      in
      let rec drain () =
        match model_pop () with
        | None -> Pqueue.pop q = None
        | expected -> Pqueue.pop q = expected && drain ()
      in
      List.for_all step ops && drain ())

(* [remove] against a model: the queued elements as (priority, seq, value)
   and every handle ever taken, with its element's seq.  Removing through
   any handle must succeed exactly when the model still holds its
   element, so handles whose element was popped, removed or cleared, or
   whose slot a later add reused, must be no-ops.  A pop returns the
   model's least (priority, seq). *)
type pq_rm_op = Add of int | Add_plain of int | Remove of int | Pop | Clear

let pq_rm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun p -> Add p) (int_bound 7));
        (1, map (fun p -> Add_plain p) (int_bound 7));
        (4, map (fun k -> Remove k) (int_bound 1_000));
        (3, return Pop);
        (1, map (fun n -> if n = 0 then Clear else Pop) (int_bound 20));
      ])

let print_pq_rm_op = function
  | Add p -> Printf.sprintf "add %d" p
  | Add_plain p -> Printf.sprintf "add-plain %d" p
  | Remove k -> Printf.sprintf "remove #%d" k
  | Pop -> "pop"
  | Clear -> "clear"

let prop_pqueue_remove =
  QCheck.Test.make
    ~name:"pqueue add/remove/pop/clear = model ordered by (time, seq)"
    ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_pq_rm_op ops))
       QCheck.Gen.(list_size (0 -- 300) pq_rm_op_gen))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] and handles = ref [||] and next = ref 0 in
      let least () =
        List.fold_left
          (fun best ((p, s, _) as e) ->
            match best with
            | Some (bp, bs, _) when bp < p || (bp = p && bs < s) -> best
            | _ -> Some e)
          None !model
      in
      let add ~removable p =
        let s = !next in
        incr next;
        let v = Printf.sprintf "v%d" s in
        if removable then
          handles :=
            Array.append !handles
              [|
                ( Pqueue.add_removable q ~priority:(float_of_int p) ~seq:s v,
                  s );
              |]
        else Pqueue.add q ~priority:(float_of_int p) ~seq:s v;
        model := (p, s, v) :: !model
      in
      let step op =
        (match op with
        | Add p -> add ~removable:true p
        | Add_plain p -> add ~removable:false p
        | Remove k ->
            let n = Array.length !handles in
            if n > 0 then begin
              let h, s = !handles.(k mod n) in
              let queued = List.exists (fun (_, s', _) -> s' = s) !model in
              if Pqueue.remove q h <> queued then
                QCheck.Test.fail_reportf "remove of seq %d: expected %b" s
                  queued;
              model := List.filter (fun (_, s', _) -> s' <> s) !model
            end
        | Pop -> (
            match (least (), Pqueue.pop q) with
            | None, None -> ()
            | Some ((p, _, v) as e), Some (p', v')
              when float_of_int p = p' && v = v' ->
                model := List.filter (fun e' -> e' != e) !model
            | _ -> QCheck.Test.fail_report "pop disagrees with the model")
        | Clear ->
            Pqueue.clear q;
            model := []);
        Pqueue.length q = List.length !model
      in
      let rec drain () =
        match (least (), Pqueue.pop q) with
        | None, None -> true
        | Some ((p, _, v) as e), Some (p', v')
          when float_of_int p = p' && v = v' ->
            model := List.filter (fun e' -> e' != e) !model;
            drain ()
        | _ -> false
      in
      List.for_all step ops && drain ())

(* The three ways a handle goes stale, each a no-op that leaves the queue
   as it was. *)
let test_pqueue_stale_handles () =
  let q = Pqueue.create () in
  let popped = add_removable q ~priority:1.0 "popped" in
  add q ~priority:2.0 "kept";
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop" (Some (1.0, "popped")) (Pqueue.pop q);
  Alcotest.(check bool) "after a pop" false (Pqueue.remove q popped);
  (* "popped"'s slot is free again: the next add takes it. *)
  let reuser = add_removable q ~priority:3.0 "reuser" in
  Alcotest.(check bool) "after its slot is reused" false
    (Pqueue.remove q popped);
  Alcotest.(check int) "both still queued" 2 (Pqueue.length q);
  Alcotest.(check bool) "the live handle removes" true
    (Pqueue.remove q reuser);
  Alcotest.(check bool) "twice is a no-op" false (Pqueue.remove q reuser);
  let cleared = add_removable q ~priority:0.5 "cleared" in
  Pqueue.clear q;
  add q ~priority:4.0 "fresh";
  Alcotest.(check bool) "after clear" false (Pqueue.remove q cleared);
  Alcotest.(check (option (pair (float 0.0) string)))
    "only the fresh element" (Some (4.0, "fresh")) (Pqueue.pop q);
  Alcotest.(check bool) "then empty" true (Pqueue.is_empty q)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () -> log := "second" :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := "first" :: !log);
  Engine.after e 3.0 (fun () -> log := "third" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "first"; "second"; "third" ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule: time 1 is before now (5)") (fun () ->
      Engine.schedule e ~at:1.0 (fun () -> ()))

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~at:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 0.0))) "only early events" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock clamped" 2.5 (Engine.now e);
  Alcotest.(check int) "rest still queued" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "all fired eventually" 4 (List.length !fired)

(* [until] behind the clock must not move it back: otherwise an event
   could be scheduled, and run, before one that has already run. *)
let test_engine_until_never_rewinds () =
  let e = Engine.create () in
  Engine.schedule e ~at:10.0 (fun () -> ());
  Engine.schedule e ~at:20.0 (fun () -> ());
  Engine.run ~until:10.0 e;
  Alcotest.(check (float 0.0)) "ran to t=10" 10.0 (Engine.now e);
  Engine.run ~until:5.0 e;
  Alcotest.(check (float 0.0)) "clock stays at 10" 10.0 (Engine.now e);
  Alcotest.check_raises "t=6 is in the past"
    (Invalid_argument "Engine.schedule: time 6 is before now (10)") (fun () ->
      Engine.schedule e ~at:6.0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check (float 0.0)) "then runs on" 20.0 (Engine.now e)

let test_engine_rejects_nan () =
  let e = Engine.create () in
  let fired = ref false in
  Alcotest.check_raises "schedule at NaN"
    (Invalid_argument "Engine.schedule: time is NaN") (fun () ->
      Engine.schedule e ~at:Float.nan (fun () -> fired := true));
  Alcotest.check_raises "after NaN" (Invalid_argument "Engine.after: NaN delay")
    (fun () -> Engine.after e Float.nan (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "nothing ran" false !fired;
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Engine.now e)

(* The dispatch loop itself allocates nothing: 10 000 queued events that
   share one closure run without a minor-heap word per event, half of
   them from the heap and half from two lanes.  (A small constant covers
   the boxed floats [Gc.minor_words] itself returns.) *)
let test_engine_run_allocation_free () =
  let e = Engine.create () in
  let count = ref 0 in
  let f () = incr count in
  let n = 10_000 in
  let lanes = [| Engine.lane e ~delay:0.5; Engine.lane e ~delay:3.0 |] in
  for i = 1 to n / 2 do
    Engine.schedule e ~at:(float_of_int (i mod 97)) f;
    Engine.append (Option.get lanes.(i mod 2)) f
  done;
  let before = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all ran" n !count;
  Alcotest.(check bool)
    (Printf.sprintf "no words per event (%.0f words for %d events)" words n)
    true (words < 64.0)

let test_engine_cancellation () =
  let e = Engine.create () in
  let fired = ref false in
  let cancel = Engine.cancellable_after e 1.0 (fun () -> fired := true) in
  cancel ();
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

(* A cancelled timer leaves the queue: a run whose only other pending
   events are cancelled timers ends with the clock at its last live
   event, not at a dead deadline. *)
let test_engine_cancelled_deadline_unvisited () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.after e 1.0 (fun () -> incr ran);
  let cancel = Engine.cancellable_after e 5.0 (fun () -> incr ran) in
  Engine.after e 0.5 cancel;
  Engine.run e;
  Alcotest.(check int) "only the live event ran" 1 !ran;
  Alcotest.(check (float 0.0)) "clock at the last live event" 1.0
    (Engine.now e);
  let st = Engine.stats e in
  Alcotest.(check int) "executed counts live events" 2 st.Engine.executed;
  Alcotest.(check int) "one cancelled" 1 st.Engine.cancelled

let test_engine_cancelled_leave_nothing () =
  let e = Engine.create () in
  let n = 10_000 in
  let cancels =
    List.init n (fun i ->
        Engine.cancellable_after e (float_of_int (1 + (i mod 50))) ignore)
  in
  Alcotest.(check int) "all queued" n (Engine.pending e);
  List.iter (fun cancel -> cancel ()) cancels;
  List.iter (fun cancel -> cancel ()) cancels (* again: no-ops *);
  let st = Engine.stats e in
  Alcotest.(check int) "nothing pending" 0 st.Engine.pending;
  Alcotest.(check int) "each counted once" n st.Engine.cancelled;
  Engine.run e;
  Alcotest.(check int) "nothing ran" 0 (Engine.stats e).Engine.executed;
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Engine.now e)

let test_engine_cascading_events () =
  (* Events scheduling events; the chain must run to completion. *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      Engine.after e 0.1 (fun () -> chain (n - 1))
    end
  in
  chain 50;
  Engine.run e;
  Alcotest.(check int) "all 50 links ran" 50 !count;
  Alcotest.(check bool) "time advanced" true (Engine.now e > 4.8)

let test_engine_step () =
  let e = Engine.create () in
  let n = ref 0 in
  Engine.after e 1.0 (fun () -> incr n);
  Engine.after e 2.0 (fun () -> incr n);
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check int) "one ran" 1 !n;
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "empty" false (Engine.step e)

(* ---- background events ---- *)

(* An unbounded run ends with its last foreground event: the ticker runs
   while foreground work is queued and holds nothing open after it. *)
let test_every_unbounded_run () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e 1.0 (fun () -> incr ticks);
  Engine.schedule e ~at:2.5 (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "ticks before the last foreground event" 2 !ticks;
  Alcotest.(check (float 0.0)) "clock at the last foreground event" 2.5
    (Engine.now e);
  Alcotest.(check int) "only the ticker queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "an idle run runs no tick" 2 !ticks;
  Alcotest.(check (float 0.0)) "nor moves the clock" 2.5 (Engine.now e)

let test_every_until () =
  let e = Engine.create () in
  let at = ref [] in
  Engine.every e 1.0 (fun () -> at := Engine.now e :: !at);
  Engine.run ~until:5.0 e;
  Alcotest.(check (list (float 0.0))) "ticks through until"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !at);
  Alcotest.(check (float 0.0)) "clock at until" 5.0 (Engine.now e);
  Engine.run ~until:7.5 e;
  Alcotest.(check int) "and on from there" 7 (List.length !at);
  Alcotest.(check (float 0.0)) "clock at the second until" 7.5 (Engine.now e)

(* Same-instant events keep (time, FIFO) order whether background or
   not: each tick queues the next one when it runs. *)
let test_every_fifo_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule e ~at:1.0 (note "fg-a");
  Engine.every e 1.0 (note "tick");
  Engine.schedule e ~at:1.0 (note "fg-b");
  Engine.schedule e ~at:2.0 (note "fg-c");
  Engine.run e;
  Alcotest.(check (list string)) "foreground run"
    [ "fg-a"; "tick"; "fg-b"; "fg-c" ] (List.rev !log);
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "the tick queued at t=1 runs after fg-c"
    [ "fg-a"; "tick"; "fg-b"; "fg-c"; "tick" ] (List.rev !log)

(* A ticker armed by a running event counts at once: the run that armed
   it still ends. *)
let test_every_armed_in_flight () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.schedule e ~at:1.0 (fun () ->
      Engine.every e 0.5 (fun () -> incr ticks));
  Engine.schedule e ~at:2.0 (fun () -> ());
  Engine.run ~max_events:1000 e;
  Alcotest.(check (float 0.0)) "clock at the last foreground event" 2.0
    (Engine.now e);
  Alcotest.(check int) "one tick before it" 1 !ticks;
  Alcotest.(check int) "not truncated" 0 (Engine.stats e).Engine.truncated;
  Engine.schedule e ~at:3.0 (fun () ->
      Engine.every e 0.25 (fun () -> incr ticks));
  Engine.run ~max_events:1000 e;
  Alcotest.(check (float 0.0)) "a run that only arms a ticker ends" 3.0
    (Engine.now e);
  Alcotest.(check int) "still not truncated" 0
    (Engine.stats e).Engine.truncated

let test_every_rejects () =
  let e = Engine.create () in
  let fired = ref false in
  List.iter
    (fun (interval, msg) ->
      Alcotest.check_raises (Printf.sprintf "interval %g" interval)
        (Invalid_argument msg) (fun () ->
          Engine.every e interval (fun () -> fired := true)))
    [
      (0.0, "Engine.every: interval must be positive");
      (-1.0, "Engine.every: interval must be positive");
      (Float.nan, "Engine.every: NaN interval");
    ];
  Engine.run ~until:10.0 e;
  Alcotest.(check bool) "nothing armed" false !fired;
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* A popped element must not stay reachable from a vacated heap slot:
   the engine queues closures, and a retained one keeps everything it
   captured alive past its dispatch. *)
let test_pqueue_pop_releases () =
  let q = Pqueue.create () in
  let tracked = Weak.create 2 in
  let[@inline never] add_tracked i priority =
    let v = Bytes.make 64 'v' in
    Weak.set tracked i (Some v);
    add q ~priority v
  in
  let[@inline never] pop_discard () = ignore (Pqueue.pop q) in
  (* Heap [a; b; c]; popping [a] moves [c] to the root and leaves its old
     slot behind; popping [c] next must not leave it there. *)
  add q ~priority:1.0 (Bytes.make 64 'a');
  add_tracked 1 3.0;
  add_tracked 0 2.0;
  pop_discard ();
  pop_discard ();
  Gc.full_major ();
  Alcotest.(check bool) "collected while entries remain" false
    (Weak.check tracked 0);
  pop_discard ();
  Gc.full_major ();
  Alcotest.(check bool) "collected once the queue is empty" false
    (Weak.check tracked 1)

(* ---- lanes ---- *)

let test_lane_sharing () =
  let e = Engine.create () in
  let get delay = Option.get (Engine.lane e ~delay) in
  let a = get 0.01 in
  Alcotest.(check bool) "an equal delay shares the lane" true (get 0.01 == a);
  Alcotest.(check bool) "another delay gets its own" true (get 0.02 != a);
  for i = 3 to 8 do
    ignore (get (0.01 *. float_of_int i))
  done;
  Alcotest.(check bool) "a ninth delay gets none" true
    (Engine.lane e ~delay:0.09 = None);
  Alcotest.(check bool) "the eight are still there" true (get 0.08 != a);
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.lane: negative delay") (fun () ->
      ignore (Engine.lane e ~delay:(-1.0)));
  Alcotest.check_raises "NaN" (Invalid_argument "Engine.lane: NaN delay")
    (fun () -> ignore (Engine.lane e ~delay:Float.nan))

(* A random program: what each event does when it runs.  Every event logs
   its id and the clock; ids are handed out as events are queued, so two
   runs that queue in the same order number alike. *)
type action =
  | After of float * action list
  | At of float * action list  (* [schedule ~at:(now + offset)] *)
  | Timer of float * action list  (* [cancellable_after] *)
  | Cancel of int  (* the k-th timer queued so far, modulo their count *)
  | Every of float
  | Append of int * action list  (* onto [lane_delays.(i)]'s lane *)

(* A delay-0 lane, a lane two equal-latency links share (1 and 2), and a
   long-delay lane.  The heap's delays include each lane's, so heap and
   lane events tie. *)
let lane_delays = [| 0.0; 0.01; 0.01; 5.0 |]

type slice = Until of float | Steps of int

let rec print_action = function
  | After (d, b) -> Printf.sprintf "after %g [%s]" d (print_body b)
  | At (d, b) -> Printf.sprintf "at +%g [%s]" d (print_body b)
  | Timer (d, b) -> Printf.sprintf "timer %g [%s]" d (print_body b)
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Every i -> Printf.sprintf "every %g" i
  | Append (l, b) -> Printf.sprintf "lane %d [%s]" l (print_body b)

and print_body b = String.concat "; " (List.map print_action b)

let print_slice = function
  | Until u -> Printf.sprintf "until %g" u
  | Steps n -> Printf.sprintf "%d steps" n

let program_gen =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; 0.003; 0.01; 0.5; 1.0; 5.0 ] in
  let action =
    fix
      (fun self depth ->
        let body =
          if depth = 0 then return [] else list_size (0 -- 3) (self (depth - 1))
        in
        frequency
          [
            (3, map2 (fun d b -> After (d, b)) delay body);
            (2, map2 (fun d b -> At (d, b)) delay body);
            (2, map2 (fun d b -> Timer (d, b)) delay body);
            (2, map (fun k -> Cancel k) (int_bound 50));
            (1, map (fun i -> Every i) (oneofl [ 0.25; 1.0 ]));
            (6, map2 (fun l b -> Append (l, b)) (int_bound 3) body);
          ])
      3
  in
  let slice =
    frequency
      [
        ( 3,
          map
            (fun u -> Until u)
            (oneofl [ 0.0; 0.005; 0.01; 0.5; 1.0; 2.5; 5.0; 5.01; 10.0 ]) );
        (1, map (fun n -> Steps n) (int_bound 5));
      ]
  in
  pair (list_size (1 -- 8) action) (list_size (0 -- 5) slice)

(* Run a program and return its log of (event id, clock) and the stats
   after each slice and at the end.  With [~lanes:false], every lane
   append is made through [Engine.after] at the lane's delay instead. *)
let run_program ~lanes (init, slices) =
  let e = Engine.create () in
  let queue_on =
    if lanes then begin
      let ls =
        Array.map (fun delay -> Option.get (Engine.lane e ~delay)) lane_delays
      in
      assert (ls.(1) == ls.(2));
      fun i f -> Engine.append ls.(i) f
    end
    else fun i f -> Engine.after e lane_delays.(i) f
  in
  let log = ref [] and next_id = ref 0 and timers = ref [||] in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let rec perform = function
    | After (d, b) -> Engine.after e d (event b)
    | At (d, b) -> Engine.schedule e ~at:(Engine.now e +. d) (event b)
    | Timer (d, b) ->
        let cancel = Engine.cancellable_after e d (event b) in
        timers := Array.append !timers [| cancel |]
    | Cancel k ->
        let n = Array.length !timers in
        if n > 0 then !timers.(k mod n) ()
    | Every i ->
        let id = fresh () in
        Engine.every e i (fun () -> log := (id, Engine.now e) :: !log)
    | Append (l, b) -> queue_on l (event b)
  and event body =
    let id = fresh () in
    fun () ->
      log := (id, Engine.now e) :: !log;
      List.iter perform body
  in
  List.iter perform init;
  let stats =
    List.map
      (fun slice ->
        (match slice with
        | Until until -> Engine.run ~until e
        | Steps n ->
            for _ = 1 to n do
              ignore (Engine.step e : bool)
            done);
        Engine.stats e)
      slices
  in
  Engine.run e;
  (List.rev !log, stats @ [ Engine.stats e ])

let prop_lanes_keep_heap_order =
  QCheck.Test.make ~name:"lanes run events as the heap alone would" ~count:500
    (QCheck.make
       ~print:(fun (init, slices) ->
         Printf.sprintf "[%s] then %s" (print_body init)
           (String.concat ", " (List.map print_slice slices)))
       program_gen)
    (fun program ->
      let log, stats = run_program ~lanes:true program in
      let log', stats' = run_program ~lanes:false program in
      if log <> log' then QCheck.Test.fail_report "event logs differ";
      if stats <> stats' then QCheck.Test.fail_report "stats differ";
      true)

(* A lane clears the slot of each event it runs: a closure stays reachable
   no longer than its event, although the ring still holds later ones. *)
let test_lane_releases () =
  let e = Engine.create () in
  let l = Option.get (Engine.lane e ~delay:0.5) in
  let tracked = Weak.create 1 in
  let[@inline never] append_tracked () =
    let v = Bytes.make 64 'v' in
    Weak.set tracked 0 (Some v);
    Engine.append l (fun () -> ignore (Sys.opaque_identity v))
  in
  append_tracked ();
  Engine.after e 0.25 (fun () -> Engine.append l ignore);
  Engine.run ~until:0.6 e;
  Alcotest.(check int) "a later event still queued" 1 (Engine.pending e);
  Gc.full_major ();
  Alcotest.(check bool) "the run event's closure is collected" false
    (Weak.check tracked 0);
  Engine.run e;
  Alcotest.(check int) "all ran" 3 (Engine.stats e).Engine.executed

(* a =seg= r1 -- ... -- r9 =seg= b: ten links, each with its own latency,
   and traffic both ways.  With [~full_engine] the world's engine has
   given out its eight lanes before the links are made, so every link
   schedules on the heap. *)
let latency_chain ~full_engine =
  let net = Net.create () in
  let eng = Net.engine net in
  if full_engine then
    for i = 1 to 8 do
      ignore (Engine.lane eng ~delay:(100.0 +. float_of_int i))
    done;
  let latency i = 0.001 *. float_of_int (i + 1) in
  let n = 9 in
  let nodes =
    Array.init (n + 2) (fun i ->
        if i = 0 then Net.add_host net "a"
        else if i = n + 1 then Net.add_host net "b"
        else Net.add_router net (Printf.sprintf "r%d" i))
  in
  let near i = Ipv4_addr.of_octets 10 0 i 1
  and far i = Ipv4_addr.of_octets 10 0 i 2 in
  for i = 0 to n do
    let pfx = Ipv4_addr.Prefix.make (near i) 24 in
    if i = 0 || i = n then begin
      let seg =
        Net.add_segment net ~name:(Printf.sprintf "seg%d" i)
          ~latency:(latency i) ()
      in
      ignore (Net.attach nodes.(i) seg ~ifname:"up" ~addr:(near i) ~prefix:pfx);
      ignore
        (Net.attach nodes.(i + 1) seg ~ifname:"down" ~addr:(far i) ~prefix:pfx)
    end
    else
      ignore
        (Net.p2p net ~latency:(latency i) ~prefix:pfx
           (nodes.(i), "up", near i)
           (nodes.(i + 1), "down", far i));
    Routing.add_default (Net.routing nodes.(i)) ~gateway:(far i) ~iface:"up";
    Routing.add (Net.routing nodes.(i + 1))
      ~prefix:(Ipv4_addr.Prefix.make (near 0) 24)
      ~gateway:(near i) ~iface:"down" ()
  done;
  let a = nodes.(0) and b = nodes.(n + 1) in
  let got = ref [] in
  let proto = Ipv4_packet.P_other 253 in
  let send node ~src ~dst size =
    ignore
      (Net.send node
         (Ipv4_packet.make ~protocol:proto ~src ~dst
            (Ipv4_packet.Raw (Bytes.make size 'x'))))
  in
  List.iter
    (fun node ->
      Net.set_protocol_handler node proto (fun node _ pkt ->
          let size = Ipv4_packet.byte_length pkt in
          got := (Net.node_name node, Net.now net, size) :: !got))
    [ a; b ];
  for k = 0 to 19 do
    Engine.after eng
      (0.0015 *. float_of_int k)
      (fun () ->
        send a ~src:(near 0) ~dst:(far n) (64 + (k * 32));
        send b ~src:(far n) ~dst:(near 0) (64 + (k * 16)))
  done;
  Net.run net;
  (net, List.rev !got)

let test_lanes_full_engine () =
  let net, got = latency_chain ~full_engine:false in
  let net', got' = latency_chain ~full_engine:true in
  let lane_for net delay = Engine.lane (Net.engine net) ~delay in
  Alcotest.(check bool) "the first eight latencies took lanes" true
    (lane_for net 0.001 <> None && lane_for net 0.008 <> None);
  Alcotest.(check bool) "and the world's engine has none left" true
    (lane_for net 1.5 = None);
  Alcotest.(check bool) "no link of the full engine has a lane" true
    (lane_for net' 0.001 = None);
  Alcotest.(check int) "every datagram delivered" 40 (List.length got);
  Alcotest.(check bool) "same deliveries, at the same times" true (got = got');
  Alcotest.(check bool) "same trace" true
    (Trace.records (Net.trace net) = Trace.records (Net.trace net'));
  Alcotest.(check bool) "same stats" true (Net.stats net = Net.stats net')

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "pqueue orders" `Quick test_pqueue_orders;
        Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "pqueue peek" `Quick test_pqueue_peek_stable;
        Alcotest.test_case "pqueue pop releases the value" `Quick
          test_pqueue_pop_releases;
        QCheck_alcotest.to_alcotest prop_pqueue_sorts;
        QCheck_alcotest.to_alcotest prop_pqueue_priority_seq_order;
        QCheck_alcotest.to_alcotest prop_pqueue_interleaved;
        QCheck_alcotest.to_alcotest prop_pqueue_remove;
        Alcotest.test_case "pqueue stale handles" `Quick
          test_pqueue_stale_handles;
        Alcotest.test_case "engine runs in order" `Quick
          test_engine_runs_in_order;
        Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "engine until" `Quick test_engine_until;
        Alcotest.test_case "engine until never rewinds" `Quick
          test_engine_until_never_rewinds;
        Alcotest.test_case "engine rejects NaN" `Quick test_engine_rejects_nan;
        Alcotest.test_case "engine run allocates nothing" `Quick
          test_engine_run_allocation_free;
        Alcotest.test_case "engine cancellation" `Quick test_engine_cancellation;
        Alcotest.test_case "engine never visits a cancelled deadline" `Quick
          test_engine_cancelled_deadline_unvisited;
        Alcotest.test_case "engine 10 000 cancelled timers leave nothing"
          `Quick test_engine_cancelled_leave_nothing;
        Alcotest.test_case "engine cascading events" `Quick
          test_engine_cascading_events;
        Alcotest.test_case "engine step" `Quick test_engine_step;
        Alcotest.test_case "every: unbounded run ends at foreground" `Quick
          test_every_unbounded_run;
        Alcotest.test_case "every: run ~until runs background" `Quick
          test_every_until;
        Alcotest.test_case "every: same-instant FIFO order" `Quick
          test_every_fifo_order;
        Alcotest.test_case "every: armed in flight holds nothing open" `Quick
          test_every_armed_in_flight;
        Alcotest.test_case "every: rejects bad intervals" `Quick
          test_every_rejects;
        Alcotest.test_case "lane: shared by equal delays, eight at most"
          `Quick test_lane_sharing;
        QCheck_alcotest.to_alcotest prop_lanes_keep_heap_order;
        Alcotest.test_case "lane: a run event's closure is freed" `Quick
          test_lane_releases;
        Alcotest.test_case "lane: past eight latencies, the heap, same log"
          `Quick test_lanes_full_engine;
      ] );
  ]
