(* Int-keyed open-addressing hash map for the data plane's per-node
   lookups (ARP cache, pending-ARP queues, protocol handlers).

   The generic [(Ipv4_addr.t, _) Hashtbl.t] these replace pays a
   polymorphic [Hashtbl.hash] walk over a boxed int32 plus bucket-list
   chasing on every packet.  Addresses are 32-bit values, so the map
   keys on their (non-negative) int image: one multiply-and-mask hash,
   linear probing over a flat int array, and a parallel value array
   whose [Some v] cells are returned as-is — a hit allocates nothing.

   Empty slots hold [empty_key] = min_int, which no 32-bit address or
   protocol number maps to.  Deletion uses the standard backward-shift
   compaction for linear probing, so there are no tombstones and probe
   chains stay short.

   A new map owns no arrays: it probes the shared one-slot [unused] key
   array, whose only slot is empty, and gets arrays of its own at its
   first insert.  A node that never learns an ARP entry or binds a
   protocol pays only for the map's record. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a option array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let empty_key = min_int

let unused = [| empty_key |]
let create () = { keys = unused; vals = [||]; mask = 0; size = 0 }

let length t = t.size

(* Fibonacci-style multiplicative hash over the low bits. *)
let slot t key = key * 0x9E3779B1 land t.mask

let of_addr (a : Ipv4_addr.t) = Int32.to_int (a :> int32) land 0xFFFFFFFF

let rec probe t key i =
  let k = Array.unsafe_get t.keys i in
  if k = key || k = empty_key then i else probe t key ((i + 1) land t.mask)

let find t key =
  let i = probe t key (slot t key) in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else None

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap None;
  t.mask <- cap - 1;
  t.size <- 0;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let j = probe t k (slot t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- old_vals.(i);
        t.size <- t.size + 1
      end)
    old_keys

let replace t key v =
  if t.keys == unused then begin
    t.keys <- Array.make 8 empty_key;
    t.vals <- Array.make 8 None;
    t.mask <- 7
  end;
  let i = probe t key (slot t key) in
  if t.keys.(i) = key then t.vals.(i) <- Some v
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- Some v;
    t.size <- t.size + 1;
    (* Keep load factor under 1/2 so probe chains stay short. *)
    if 2 * t.size > t.mask then grow t
  end

let remove t key =
  let i = probe t key (slot t key) in
  if t.keys.(i) = key then begin
    t.size <- t.size - 1;
    (* Backward-shift compaction: walk the probe chain after [i] and pull
       back every entry whose home slot precedes the hole. *)
    let hole = ref i in
    let j = ref ((i + 1) land t.mask) in
    let continue = ref true in
    while !continue do
      let k = t.keys.(!j) in
      if k = empty_key then continue := false
      else begin
        let home = slot t k in
        (* [k] may move back into the hole iff the hole lies cyclically
           between its home slot and its current position. *)
        let between =
          if !hole <= !j then home <= !hole || home > !j
          else home <= !hole && home > !j
        in
        if between then begin
          t.keys.(!hole) <- k;
          t.vals.(!hole) <- t.vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land t.mask
      end
    done;
    t.keys.(!hole) <- empty_key;
    t.vals.(!hole) <- None
  end

let reset t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty_key;
    Array.fill t.vals 0 (Array.length t.vals) None;
    t.size <- 0
  end
