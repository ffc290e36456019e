(* A binary heap whose positions hold slot numbers, with each position's
   key unboxed beside it: [prio] (a floatarray) and [seq] (an int array)
   are indexed by heap position, like [slot].  Values sit in [values],
   indexed by slot; a value is written there once on [add] and cleared
   once when popped or removed, and never moves while queued.  Sifts
   therefore move only floats and ints: no per-element record, no boxed
   float, and no GC write barrier per level.  [pos], indexed by slot, is
   the inverse of [slot] for queued slots; the sifts keep it current, so
   [remove] finds an entry's position in O(1).

   Sequence numbers come from the caller (the engine numbers every event
   it queues, on the heap or on a lane, from one counter); the queue only
   orders by them.

   [free] is a stack of vacated slots.  Slots in use and slots on the
   stack together are always [0 .. hw) for some high-water mark [hw];
   when the stack is empty every one of them is in use, so [hw = size]
   and the next fresh slot is [size]. *)

type 'a t = {
  mutable prio : floatarray;
  mutable seq : int array;
  mutable slot : int array;
  mutable pos : int array;
  mutable values : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable size : int;
}

(* A queued entry is named by its slot and its sequence number.  The
   caller never reuses a sequence number, so a handle whose entry has left
   the queue (popped, removed or cleared) matches no entry, even once its
   slot holds another. *)
type handle = { h_slot : int; h_seq : int }

(* Filler for every vacant value slot, so the queue never keeps a popped
   value (and the closure it may be) reachable.  Only occupied slots are
   ever read. *)
let vacant () : 'a = Obj.magic ()

let create () =
  {
    prio = Float.Array.create 0;
    seq = [||];
    slot = [||];
    pos = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let clear t =
  t.prio <- Float.Array.create 0;
  t.seq <- [||];
  t.slot <- [||];
  t.pos <- [||];
  t.values <- [||];
  t.free <- [||];
  t.nfree <- 0;
  t.size <- 0

let grow t =
  let n = t.size in
  let capacity = max 16 (2 * n) in
  let prio = Float.Array.create capacity in
  Float.Array.blit t.prio 0 prio 0 n;
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.prio <- prio;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.pos <- extend t.pos 0;
  t.values <- extend t.values (vacant ());
  (* A full queue has no free slots, so the stack starts out empty. *)
  t.free <- Array.make capacity 0

(* Key [(p1, q1)] comes before [(p2, q2)] when its priority is lower, or
   equal but scheduled earlier:

     p1 < p2 || (p1 = p2 && q1 < q2)

   The sifts spell this test out rather than call a helper: even inlined,
   a helper's float parameters are boxed.  Each sift lifts the entry at
   [i] out, moves the hole past every entry it must pass, then fills the
   hole; its key stays in unboxed locals throughout. *)

let sift_up t i =
  let prio = t.prio and seq = t.seq and slot = t.slot and pos = t.pos in
  let p = Float.Array.unsafe_get prio i in
  let q = Array.unsafe_get seq i in
  let s = Array.unsafe_get slot i in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Float.Array.unsafe_get prio parent in
    if p < pp || (p = pp && q < Array.unsafe_get seq parent) then begin
      let ps = Array.unsafe_get slot parent in
      Float.Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i (Array.unsafe_get seq parent);
      Array.unsafe_set slot !i ps;
      Array.unsafe_set pos ps !i;
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i q;
  Array.unsafe_set slot !i s;
  Array.unsafe_set pos s !i

let sift_down t i =
  let prio = t.prio and seq = t.seq and slot = t.slot and pos = t.pos in
  let n = t.size in
  let p = Float.Array.unsafe_get prio i in
  let q = Array.unsafe_get seq i in
  let s = Array.unsafe_get slot i in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let pl = Float.Array.unsafe_get prio l in
          let pr = Float.Array.unsafe_get prio r in
          if
            pr < pl
            || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l)
          then r
          else l
        end
        else l
      in
      let pc = Float.Array.unsafe_get prio c in
      if pc < p || (pc = p && Array.unsafe_get seq c < q) then begin
        let cs = Array.unsafe_get slot c in
        Float.Array.unsafe_set prio !i pc;
        Array.unsafe_set seq !i (Array.unsafe_get seq c);
        Array.unsafe_set slot !i cs;
        Array.unsafe_set pos cs !i;
        i := c
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i q;
  Array.unsafe_set slot !i s;
  Array.unsafe_set pos s !i

(* Queue [value] and return its slot. *)
let insert t ~priority ~seq value =
  if t.size = Array.length t.slot then grow t;
  let s =
    if t.nfree = 0 then t.size
    else begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
  in
  Array.unsafe_set t.values s value;
  let i = t.size in
  t.size <- i + 1;
  Float.Array.unsafe_set t.prio i priority;
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.slot i s;
  sift_up t i;
  s

let add t ~priority ~seq value = ignore (insert t ~priority ~seq value : int)

let add_removable t ~priority ~seq value =
  { h_slot = insert t ~priority ~seq value; h_seq = seq }

(* Take the entry at position [i] out: free its slot, fill the hole with
   the last entry and sift that up or down to its place. *)
let delete_at t i =
  let s = Array.unsafe_get t.slot i in
  Array.unsafe_set t.values s (vacant ());
  Array.unsafe_set t.free t.nfree s;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let prio = t.prio and seq = t.seq in
    let p = Float.Array.unsafe_get prio last in
    let q = Array.unsafe_get seq last in
    Float.Array.unsafe_set prio i p;
    Array.unsafe_set seq i q;
    Array.unsafe_set t.slot i (Array.unsafe_get t.slot last);
    let parent = (i - 1) / 2 in
    let pp = Float.Array.unsafe_get prio parent in
    if i > 0 && (p < pp || (p = pp && q < Array.unsafe_get seq parent)) then
      sift_up t i
    else sift_down t i
  end

let remove t h =
  h.h_slot < Array.length t.pos
  &&
  let i = Array.unsafe_get t.pos h.h_slot in
  i < t.size
  && Array.unsafe_get t.seq i = h.h_seq
  && begin
       delete_at t i;
       true
     end

let priorities t = t.prio
let seqs t = t.seq

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let v = Array.unsafe_get t.values (Array.unsafe_get t.slot 0) in
  delete_at t 0;
  v

let peek t =
  if t.size = 0 then None
  else Some (Float.Array.get t.prio 0, t.values.(t.slot.(0)))

let pop t =
  if t.size = 0 then None
  else
    let p = Float.Array.get t.prio 0 in
    Some (p, pop_min t)
