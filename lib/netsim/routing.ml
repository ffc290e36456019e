type route = {
  prefix : Ipv4_addr.Prefix.t;
  gateway : Ipv4_addr.t option;
  iface : string;
  metric : int;
}

(* Path-compressed binary trie on destination-address bits.  A node stands
   for the prefix [key/len] ([key] is the network's unsigned 32-bit image)
   and exists only where routes live or where two subtrees branch, so a
   route costs at most two nodes.  A child's prefix extends its parent's,
   and bit [len] of the child's key says which side it hangs on.  [here]
   holds every route for exactly this prefix, sorted by metric (ascending)
   then insertion sequence (newest first), so its head is the prefix's
   winner and the deepest non-empty node on a lookup walk is the longest
   match: longest prefix, then lowest metric, then newest route.  Missing
   children are the shared [empty] sentinel. *)
type node = {
  key : int;
  len : int;
  mutable here : (int * route) list;  (* (insertion seq, route) *)
  mutable zero : node;
  mutable one : node;
}

let rec empty = { key = 0; len = 0; here = []; zero = empty; one = empty }

(* Destination cache: [cache_slots] direct-mapped entries keyed by the
   low bits of the address's int image, which tell apart the handful of
   addresses a router forwards to at once (in the standard world the home
   agent, correspondent, home and care-of addresses all differ there).
   Entry [i] is live when [tags.(i)] equals the address stamped with the
   table's current generation, so a mutation invalidates every entry at
   once by bumping [gen].  The arrays are allocated at the table's first
   cache miss: building a world allocates no caches. *)
let cache_slots = 16
let slot_mask = cache_slots - 1

type table = {
  mutable root : node;
  mutable seq : int;
  mutable gen : int;
  mutable tags : int array;  (* [gen lsl 32 lor address], or -1 if unused *)
  mutable answers : route option array;
}

let create () = { root = empty; seq = 0; gen = 0; tags = [||]; answers = [||] }

let key_of (addr : Ipv4_addr.t) = Int32.to_int (addr :> int32) land 0xffff_ffff

(* The stamp of [addr] in generation [gen]: never negative, so it never
   matches an unused tag. *)
let tag gen addr =
  (gen lsl 32) lor (Int32.to_int addr land 0xffff_ffff)

(* Generations stay below 2^30, so stamps fit in 62 bits. *)
let invalidate t =
  if t.gen < (1 lsl 30) - 1 then t.gen <- t.gen + 1
  else begin
    t.gen <- 0;
    Array.fill t.tags 0 (Array.length t.tags) (-1)
  end

(* Bit [i] of a 32-bit key, counting from the most significant. *)
let bit key i = (key lsr (31 - i)) land 1

(* Does [node]'s prefix hold [key]? *)
let covers node key = (key lxor node.key) lsr (32 - node.len) = 0

let node key len here = { key; len; here; zero = empty; one = empty }

let hang parent child =
  if bit child.key parent.len = 0 then parent.zero <- child
  else parent.one <- child

(* The length of the run of leading bits [a] and [b] share from bit [i],
   at most [limit]. *)
let rec common a b limit i =
  if i < limit && bit a i = bit b i then common a b limit (i + 1) else i

(* [e] before the first entry of equal-or-greater metric: lower metric
   wins, and among equal metrics the newest route comes first. *)
let rec file ((_, r) as e) = function
  | ((_, r') as e') :: rest when r'.metric < r.metric -> e' :: file e rest
  | rest -> e :: rest

(* [insert n key len e] is [n]'s subtree with route entry [e] filed under
   [key/len], adding at most a node for the prefix and a branch node. *)
let rec insert n key len e =
  if n == empty then node key len [ e ]
  else
    let c = common key n.key (min len n.len) 0 in
    if c = n.len && c = len then begin
      n.here <- file e n.here;
      n
    end
    else if c = n.len then begin
      if bit key c = 0 then n.zero <- insert n.zero key len e
      else n.one <- insert n.one key len e;
      n
    end
    else begin
      let fresh = node key len [ e ] in
      if c = len then (hang fresh n; fresh)
      else begin
        let branch = node (key land lnot (0xffff_ffff lsr c)) c [] in
        hang branch n;
        hang branch fresh;
        branch
      end
    end

(* A node left with no routes and at most one child is spliced out. *)
let compact n =
  match n.here with
  | _ :: _ -> n
  | [] ->
      if n.zero == empty then n.one
      else if n.one == empty then n.zero
      else n

let add t ?(metric = 0) ?gateway ~prefix ~iface () =
  t.seq <- t.seq + 1;
  t.root <-
    insert t.root
      (key_of (Ipv4_addr.Prefix.network prefix))
      (Ipv4_addr.Prefix.bits prefix)
      (t.seq, { prefix; gateway; iface; metric });
  invalidate t

let add_default t ~gateway ~iface =
  add t ~gateway ~prefix:Ipv4_addr.Prefix.global ~iface ()

let remove t ?iface ?metric ~prefix () =
  let key = key_of (Ipv4_addr.Prefix.network prefix)
  and len = Ipv4_addr.Prefix.bits prefix in
  let matches (_, r) =
    (match iface with None -> true | Some i -> r.iface = i)
    && match metric with None -> true | Some m -> r.metric = m
  in
  let rec strip n =
    if n == empty || n.len > len || not (covers n key) then n
    else begin
      if n.len = len then
        n.here <- List.filter (fun e -> not (matches e)) n.here
      else if bit key n.len = 0 then n.zero <- strip n.zero
      else n.one <- strip n.one;
      compact n
    end
  in
  t.root <- strip t.root;
  invalidate t

let remove_iface t ~iface =
  let rec strip n =
    if n == empty then n
    else begin
      n.here <- List.filter (fun (_, r) -> r.iface <> iface) n.here;
      n.zero <- strip n.zero;
      n.one <- strip n.one;
      compact n
    end
  in
  t.root <- strip t.root;
  invalidate t

(* [best] is the deepest non-empty route list seen so far: its head is
   the answer, wrapped once at the end. *)
let rec walk key n best =
  if n == empty || not (covers n key) then best
  else
    let best = match n.here with [] -> best | here -> here in
    if n.len = 32 then best
    else walk key (if bit key n.len = 0 then n.zero else n.one) best

let lookup_uncached t addr =
  match walk (key_of addr) t.root [] with (_, r) :: _ -> Some r | [] -> None

let lookup t (addr : Ipv4_addr.t) =
  let a = (addr :> int32) in
  let i = Int32.to_int a land slot_mask in
  let k = tag t.gen a in
  if Array.length t.tags > 0 && Array.unsafe_get t.tags i = k then
    Array.unsafe_get t.answers i
  else begin
    let r = lookup_uncached t addr in
    if Array.length t.tags = 0 then begin
      t.tags <- Array.make cache_slots (-1);
      t.answers <- Array.make cache_slots None
    end;
    Array.unsafe_set t.tags i k;
    Array.unsafe_set t.answers i r;
    r
  end

let routes t =
  let acc = ref [] in
  let rec collect n =
    if n != empty then begin
      List.iter (fun e -> acc := e :: !acc) n.here;
      collect n.zero;
      collect n.one
    end
  in
  collect t.root;
  List.stable_sort
    (fun (sa, a) (sb, b) ->
      match
        Int.compare
          (Ipv4_addr.Prefix.bits b.prefix)
          (Ipv4_addr.Prefix.bits a.prefix)
      with
      | 0 -> (
          match Int.compare a.metric b.metric with
          | 0 -> Int.compare sb sa (* newest first *)
          | c -> c)
      | c -> c)
    !acc
  |> List.map snd

let clear t =
  t.root <- empty;
  invalidate t
