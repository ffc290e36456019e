type 'a entry = { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let clear t =
  t.heap <- [||];
  t.size <- 0

(* [a] comes before [b] when its priority is lower, or equal priority but
   scheduled earlier. *)
let before a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

(* Both sifts move a hole instead of swapping, so each level costs one
   array store (and one GC write barrier) rather than two. *)

(* Put [e] in the hole at [i], or higher up, moving later parents down. *)
let rec sift_up t i e =
  let parent = (i - 1) / 2 in
  if i > 0 && before e t.heap.(parent) then begin
    t.heap.(i) <- t.heap.(parent);
    sift_up t parent e
  end
  else t.heap.(i) <- e

(* Put [e] in the hole at [i], or lower down, moving earlier children up. *)
let rec sift_down t i e =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l
  in
  if c < t.size && before t.heap.(c) e then begin
    t.heap.(i) <- t.heap.(c);
    sift_down t c e
  end
  else t.heap.(i) <- e

(* Filler for every slot at or beyond [size], so the array never keeps a
   popped entry (and the closure it carries) reachable.  Its value is
   never read: only slots below [size] are. *)
let vacant_slot : unit entry =
  { priority = infinity; seq = max_int; value = () }

let vacant () : 'a entry = Obj.magic vacant_slot

let grow t =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let heap = Array.make (max 16 (2 * capacity)) (vacant ()) in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let add t ~priority value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) { priority; seq; value }

let peek t =
  if t.size = 0 then None
  else
    let e = t.heap.(0) in
    Some (e.priority, e.value)

let pop t =
  if t.size = 0 then None
  else begin
    let e = t.heap.(0) in
    let last = t.size - 1 in
    let moved = t.heap.(last) in
    t.size <- last;
    t.heap.(last) <- vacant ();
    if last > 0 then sift_down t 0 moved;
    Some (e.priority, e.value)
  end
