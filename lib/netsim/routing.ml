type route = {
  prefix : Ipv4_addr.Prefix.t;
  gateway : Ipv4_addr.t option;
  iface : string;
  metric : int;
}

let pp_route fmt r =
  Format.fprintf fmt "%a via %s dev %s metric %d" Ipv4_addr.Prefix.pp r.prefix
    (match r.gateway with Some g -> Ipv4_addr.to_string g | None -> "direct")
    r.iface r.metric

(* Binary trie on destination-address bits.  The node reached by following
   the first [bits] bits of a network holds every route for exactly that
   prefix, kept sorted by metric (ascending) then insertion sequence
   (newest first), so the head of a node's list is that prefix's winner and
   the deepest non-empty node on a lookup walk is the longest match —
   exactly the longest-prefix / lowest-metric / newest-route preference of
   the old sorted-list table. *)
type node = {
  mutable here : (int * route) list;  (* (insertion seq, route) *)
  mutable zero : node option;
  mutable one : node option;
}

let new_node () = { here = []; zero = None; one = None }

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

let create () =
  { root = new_node (); seq = 0; gen = 0; tags = [||]; answers = [||] }

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

let bit (addr : int32) d =
  Int32.to_int (Int32.shift_right_logical addr (31 - d)) land 1

let rec find_node node net depth bits ~make =
  if depth = bits then Some node
  else
    let b = bit net depth in
    match (if b = 0 then node.zero else node.one) with
    | Some child -> find_node child net (depth + 1) bits ~make
    | None ->
        if not make then None
        else begin
          let child = new_node () in
          if b = 0 then node.zero <- Some child else node.one <- Some child;
          find_node child net (depth + 1) bits ~make
        end

let add t ?(metric = 0) ?gateway ~prefix ~iface () =
  let r = { prefix; gateway; iface; metric } in
  let node =
    Option.get
      (find_node t.root
         (Ipv4_addr.to_int32 (Ipv4_addr.Prefix.network prefix))
         0
         (Ipv4_addr.Prefix.bits prefix)
         ~make:true)
  in
  t.seq <- t.seq + 1;
  (* Insert before the first entry of equal-or-greater metric: lower metric
     wins, and among equal metrics the newest route comes first. *)
  let rec ins = function
    | (s', r') :: rest when r'.metric < metric -> (s', r') :: ins rest
    | rest -> (t.seq, r) :: rest
  in
  node.here <- ins node.here;
  invalidate t

let add_default t ~gateway ~iface =
  add t ~gateway ~prefix:Ipv4_addr.Prefix.global ~iface ()

let remove t ?iface ?metric ~prefix () =
  (match
     find_node t.root
       (Ipv4_addr.to_int32 (Ipv4_addr.Prefix.network prefix))
       0
       (Ipv4_addr.Prefix.bits prefix)
       ~make:false
   with
  | None -> ()
  | Some node ->
      let matches (_, r) =
        (match iface with None -> true | Some i -> r.iface = i)
        && match metric with None -> true | Some m -> r.metric = m
      in
      node.here <- List.filter (fun e -> not (matches e)) node.here);
  invalidate t

let remove_iface t ~iface =
  let rec strip node =
    node.here <- List.filter (fun (_, r) -> r.iface <> iface) node.here;
    Option.iter strip node.zero;
    Option.iter strip node.one
  in
  strip t.root;
  invalidate t

let lookup_uncached t addr =
  let a = Ipv4_addr.to_int32 addr in
  (* [best] is the deepest non-empty route list seen so far: its head is
     the answer, wrapped once at the end. *)
  let rec walk node depth best =
    let best = match node.here with [] -> best | here -> here in
    if depth = 32 then best
    else
      match (if bit a depth = 0 then node.zero else node.one) with
      | None -> best
      | Some child -> walk child (depth + 1) best
  in
  match walk t.root 0 [] with (_, r) :: _ -> Some r | [] -> None

let lookup t addr =
  Prof.enter Prof.Routing;
  let a = Ipv4_addr.to_int32 addr in
  let i = Int32.to_int a land slot_mask in
  let k = tag t.gen a in
  let r =
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
  in
  Prof.leave Prof.Routing;
  r

let routes t =
  let acc = ref [] in
  let rec collect node =
    List.iter (fun e -> acc := e :: !acc) node.here;
    Option.iter collect node.zero;
    Option.iter collect node.one
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
  t.root <- new_node ();
  invalidate t

let pp fmt t =
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_route r) (routes t)
