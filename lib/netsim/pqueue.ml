(* A binary heap whose positions hold slot numbers, with each position's
   key unboxed beside it: [prio] (a floatarray) and [seq] (an int array)
   are indexed by heap position, like [slot].  Values sit in [values],
   indexed by slot; a value is written there once on [add] and cleared
   once when popped, and never moves while queued.  Sifts therefore move
   only floats and ints: no per-element record, no boxed float, and no
   GC write barrier per level.

   [free] is a stack of vacated slots.  Slots in use and slots on the
   stack together are always [0 .. hw) for some high-water mark [hw];
   when the stack is empty every one of them is in use, so [hw = size]
   and the next fresh slot is [size]. *)

type 'a t = {
  mutable prio : floatarray;
  mutable seq : int array;
  mutable slot : int array;
  mutable values : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for every vacant value slot, so the queue never keeps a popped
   value (and the closure it may be) reachable.  Only occupied slots are
   ever read. *)
let vacant () : 'a = Obj.magic ()

let create () =
  {
    prio = Float.Array.create 0;
    seq = [||];
    slot = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let clear t =
  t.prio <- Float.Array.create 0;
  t.seq <- [||];
  t.slot <- [||];
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
  t.values <- extend t.values (vacant ());
  (* A full queue has no free slots, so the stack starts out empty. *)
  t.free <- Array.make capacity 0

(* Key [(p1, q1)] comes before [(p2, q2)] when its priority is lower, or
   equal but scheduled earlier:

     p1 < p2 || (p1 = p2 && q1 < q2)

   The sifts spell this test out rather than call a helper: even inlined,
   a helper's float parameters are boxed. *)

let add t ~priority value =
  if t.size = Array.length t.slot then grow t;
  let s =
    if t.nfree = 0 then t.size
    else begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
  in
  Array.unsafe_set t.values s value;
  let q = t.next_seq in
  t.next_seq <- q + 1;
  let prio = t.prio and seq = t.seq and slot = t.slot in
  (* Move the hole at the new last position up past every later parent,
     then fill it. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Float.Array.unsafe_get prio parent in
    if priority < pp || (priority = pp && q < Array.unsafe_get seq parent)
    then begin
      Float.Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i (Array.unsafe_get seq parent);
      Array.unsafe_set slot !i (Array.unsafe_get slot parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set prio !i priority;
  Array.unsafe_set seq !i q;
  Array.unsafe_set slot !i s

let priorities t = t.prio

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let prio = t.prio and seq = t.seq and slot = t.slot in
  let s = Array.unsafe_get slot 0 in
  let v = Array.unsafe_get t.values s in
  Array.unsafe_set t.values s (vacant ());
  Array.unsafe_set t.free t.nfree s;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* Move the root's hole down past every earlier child, then fill it
       with the old last entry. *)
    let p = Float.Array.unsafe_get prio last in
    let q = Array.unsafe_get seq last in
    let s = Array.unsafe_get slot last in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= last then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then begin
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
          Float.Array.unsafe_set prio !i pc;
          Array.unsafe_set seq !i (Array.unsafe_get seq c);
          Array.unsafe_set slot !i (Array.unsafe_get slot c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set prio !i p;
    Array.unsafe_set seq !i q;
    Array.unsafe_set slot !i s
  end;
  v

let peek t =
  if t.size = 0 then None
  else Some (Float.Array.get t.prio 0, t.values.(t.slot.(0)))

let pop t =
  if t.size = 0 then None
  else
    let p = Float.Array.get t.prio 0 in
    Some (p, pop_min t)
