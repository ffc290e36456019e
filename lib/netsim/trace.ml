type drop_reason =
  | Ingress_filter
  | Transit_filter
  | Firewall of string
  | Ttl_expired
  | No_route
  | Mtu_exceeded
  | Arp_unresolved
  | Not_for_me
  | Link_down
  | Link_loss
  | Link_flap
  | Partitioned
  | Reassembly_timeout
  | Custom of string

let pp_drop_reason fmt = function
  | Ingress_filter -> Format.pp_print_string fmt "ingress-source-filter"
  | Transit_filter -> Format.pp_print_string fmt "transit-filter"
  | Firewall s -> Format.fprintf fmt "firewall(%s)" s
  | Ttl_expired -> Format.pp_print_string fmt "ttl-expired"
  | No_route -> Format.pp_print_string fmt "no-route"
  | Mtu_exceeded -> Format.pp_print_string fmt "mtu-exceeded"
  | Arp_unresolved -> Format.pp_print_string fmt "arp-unresolved"
  | Not_for_me -> Format.pp_print_string fmt "not-for-me"
  | Link_down -> Format.pp_print_string fmt "link-down"
  | Link_loss -> Format.pp_print_string fmt "link-loss"
  | Link_flap -> Format.pp_print_string fmt "link-flap"
  | Partitioned -> Format.pp_print_string fmt "partitioned"
  | Reassembly_timeout -> Format.pp_print_string fmt "reassembly-timeout"
  | Custom s -> Format.fprintf fmt "custom(%s)" s

let drop_reason_equal (a : drop_reason) b = a = b

type frame_info = { id : int; flow : int; pkt : Ipv4_packet.t }

type event =
  | Send of { node : string; frame : frame_info }
  | Transmit of { link : string; frame : frame_info; bytes : int }
  | Forward of {
      node : string;
      in_iface : string;
      out_iface : string;
      frame : frame_info;
    }
  | Drop of { node : string; reason : drop_reason; frame : frame_info }
  | Deliver of { node : string; frame : frame_info }
  | Encapsulate of { node : string; frame : frame_info }
  | Decapsulate of { node : string; frame : frame_info }
  | Icmp_error of { node : string; reason : drop_reason; frame : frame_info }

type record = { time : float; event : event }

(* Per-flow index: the flow's records (newest first) plus running counters,
   so the flow queries below are O(flow) or O(1) instead of re-walking (and
   re-reversing) the whole log on every call. *)
type flow_entry = {
  mutable f_rev_records : record list;
  mutable f_transmissions : int;
  mutable f_wire_bytes : int;
}

type observer = int

(* Flight-recorder rings: allocation-free last-K event capture on the
   capacity fast path.

   A ring does not retain the [record] values other consumers get:
   retaining them looks free but is not — the freshly allocated
   record/event/frame/packet graph of every hop would survive into the
   next minor collection, be promoted to the major heap, and die there,
   turning the whole event stream into major-GC churn (measured at ~50%
   of packets/sec on the E20 overhead ladder, against <10% for this
   layout).  Instead [ring_store] explodes each event into preallocated
   scalar arrays — time, frame id/flow, every IPv4 header field plus the
   event kind and protocol packed into one int ([pack layout] below) —
   and keeps only two pointers per slot: the packet's payload and
   options, which are shared across all events of a datagram's journey,
   so the amortised retention per event is a few words.

   The storage primitive lives here rather than in the observability
   layer so the emit fast path below can reach it with a direct call
   (floats unboxed, no closure dispatch), and so packing and unpacking
   sit next to each other.  [Netobs.Recorder] wraps a ring with the
   user-facing capture API.

   When rings are a trace's only consumers, [emit] stores each event's
   fields straight into them.  When a log or observer makes [emit] build
   a record, [record] replays it into the rings by destructuring, so a
   ring sees every event exactly once either way.

   Rings attach to one trace, like observers: each [t] holds its own
   ring array, so a recorder sees only its own world's events when a
   process runs many worlds (a soak sweep, the E20 ladder), and nothing
   process-wide keeps a dropped world's ring alive. *)

(* Event kind tags, numbered in declaration order of [event]. *)
type kind = int

let k_send = 0

let k_transmit = 1
let k_forward = 2
let k_drop = 3
let k_deliver = 4
let k_encapsulate = 5
let k_decapsulate = 6
let k_icmp_error = 7

let no_iface = ""
let no_reason = Ttl_expired
let no_options = Bytes.create 0
let no_payload = Ipv4_packet.Raw no_options

(* Physical-equality memo sentinel: never equal to a real packet. *)
let dummy_pkt : Ipv4_packet.t =
  {
    Ipv4_packet.tos = 0;
    ident = 0;
    dont_fragment = false;
    more_fragments = false;
    frag_offset = 0;
    ttl = 0;
    protocol = Ipv4_packet.protocol_of_int 255;
    src = Ipv4_addr.of_int32 0l;
    dst = Ipv4_addr.of_int32 0l;
    options = no_options;
    payload = no_payload;
  }

type ring = {
  ring_capacity : int;
  (* Slot storage is one strided scalar lane (a store touches a single
     64-byte cache line per slot) plus a payload-pointer lane — not one
     array per field: at capacity scale the ring's working set is
     written cyclically, so scattered lanes would miss on every field,
     and every pointer-array store pays the GC write barrier.

     Scalar lane, stride 8 (one line per slot):
       +0 hdr (pack layout below)  +1 src  +2 dst  +3 frame id
       +4 flow  +5 bytes  +6 name id  +7 in/out iface ids (forward only)
     Name / iface strings are interned to small ids (tables below), so
     the payload is the only per-event pointer store. *)
  a_time : float array;
  ring_scratch : floatarray;
      (* staging cell for the boxed-float [ring_store] entry *)
  a_scalar : int array;
  a_payload : Obj.t array;
  a_reason : drop_reason array;  (* drop / icmp-error only *)
  a_options : Bytes.t array;  (* only written when non-empty *)
  (* String interning, keyed on physical identity: node, link and
     interface names come from the topology and live as long as the net,
     so the same pointers recur for the whole run.  [i_keys]/[i_slot_ids]
     form a direct-mapped cache from pointer bits to id (two loads and a
     compare on the hot path); [i_names] is the id -> string table the
     cold dump reads.  A moved or fresh string just misses the cache and
     re-interns — the arrays are ordinary scanned pointer arrays, so GC
     keeps the keys valid. *)
  i_keys : Obj.t array;
  i_slot_ids : int array;
  mutable i_names : Obj.t array;
  mutable i_count : int;
  mutable ring_next : int;  (* write cursor: oldest slot once wrapped *)
  mutable ring_seen : int;  (* events offered, sampled-out ones included *)
  mutable ring_kept : int;  (* events written into the ring *)
  (* Sampling precomputed as a threshold compare — [hash <= threshold]
     over the hash's low 30 bits (where multiplying by an odd constant
     actually mixes small flow ids) keeps roughly 1 flow in
     [sample_every] — so the per-event check is a multiply, xor and
     compare with no branchy special case and no hardware divide ([mod])
     on the store path.  The full 30-bit range when [sample_every = 1]:
     every hash passes. *)
  ring_threshold : int;
  ring_xseed : int;  (* seed premixed for the hash *)
  (* Packed-header memo keyed on the (immutable) packet's physical
     identity: all events of one hop share a packet pointer, so roughly
     every other store skips re-reading and re-packing the header. *)
  mutable m_pkt : Ipv4_packet.t;
  mutable m_hdr : int;
  mutable m_src : int;
  mutable m_dst : int;
}

(* pack layout of [a_hdr], low to high:
   ttl 0-7, frag_offset 8-20, ident 21-36, kind 37-39,
   has_options 44, more_fragments 45, dont_fragment 46,
   tos 47-54, protocol 55-62 *)
let bit_df = 1 lsl 46

let bit_mf = 1 lsl 45
let bit_opts = 1 lsl 44

let make_ring ?(sample_every = 1) ?(seed = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Trace.make_ring: capacity must be positive";
  if sample_every <= 0 then
    invalid_arg "Trace.make_ring: sample_every must be positive";
  {
    ring_capacity = capacity;
    a_time = Array.make capacity 0.0;
    ring_scratch = Float.Array.make 1 0.0;
    a_scalar = Array.make (capacity * 8) 0;
    a_payload = Array.make capacity (Obj.repr no_payload);
    a_reason = Array.make capacity no_reason;
    a_options = Array.make capacity no_options;
    i_keys = Array.make 256 (Obj.repr no_options);
    i_slot_ids = Array.make 256 0;
    i_names = Array.make 64 (Obj.repr "");
    i_count = 1 (* id 0 is "" *);
    ring_next = 0;
    ring_seen = 0;
    ring_kept = 0;
    ring_threshold = 0x3FFFFFFF / sample_every;
    ring_xseed = seed * 40503;
    m_pkt = dummy_pkt;
    m_hdr = 0;
    m_src = 0;
    m_dst = 0;
  }

let ring_capacity rg = rg.ring_capacity
let ring_seen rg = rg.ring_seen
let ring_kept rg = rg.ring_kept
let ring_length rg = min rg.ring_kept rg.ring_capacity

(* Deterministic 1-in-N flow sampling: a flow is in or out of the capture
   for the whole run, decided by an integer hash mix of (flow, seed) — so
   sampled captures keep whole conversations, and the same seed selects
   the same flows on every replay. *)
let ring_sampled rg flow =
  ((flow * 2654435761) lxor rg.ring_xseed) land 0x3FFFFFFF <= rg.ring_threshold

(* Re-read and re-pack the header scalars of a packet not seen by the
   previous store. *)
let ring_repack rg (p : Ipv4_packet.t) =
  let has_opts = Bytes.length p.Ipv4_packet.options > 0 in
  rg.m_pkt <- p;
  rg.m_hdr <-
    (Ipv4_packet.protocol_to_int p.Ipv4_packet.protocol lsl 55)
    lor (p.Ipv4_packet.tos lsl 47)
    lor (if p.Ipv4_packet.dont_fragment then bit_df else 0)
    lor (if p.Ipv4_packet.more_fragments then bit_mf else 0)
    lor (if has_opts then bit_opts else 0)
    lor (p.Ipv4_packet.ident lsl 21)
    lor (p.Ipv4_packet.frag_offset lsl 8)
    lor p.Ipv4_packet.ttl;
  rg.m_src <- Int32.to_int (Ipv4_addr.to_int32 p.Ipv4_packet.src);
  rg.m_dst <- Int32.to_int (Ipv4_addr.to_int32 p.Ipv4_packet.dst)

(* Interning slow path: the direct-mapped cache missed.  Scan the id
   table for a physical match (a collision or a moved string), append if
   genuinely new, and refresh the cache slot. *)
let intern_slow rg (name : string) h =
  let key = Obj.repr name in
  let n = rg.i_count in
  let id = ref (-1) in
  (let names = rg.i_names in
   try
     for i = 0 to n - 1 do
       if Array.unsafe_get names i == key then begin
         id := i;
         raise Exit
       end
     done
   with Exit -> ());
  let id =
    if !id >= 0 then !id
    else begin
      if n = Array.length rg.i_names then begin
        let bigger = Array.make (2 * n) (Obj.repr "") in
        Array.blit rg.i_names 0 bigger 0 n;
        rg.i_names <- bigger
      end;
      rg.i_names.(n) <- key;
      rg.i_count <- n + 1;
      n
    end
  in
  rg.i_keys.(h) <- key;
  rg.i_slot_ids.(h) <- id;
  id

(* Pointer-bits hash of an interned string: transient use only — a moved
   string misses the cache and re-interns, it is never read back through
   these bits. *)
let name_id rg (name : string) =
  let h = ((Obj.magic name : int) lsr 2) land 255 in
  if Array.unsafe_get rg.i_keys h == Obj.repr name then
    Array.unsafe_get rg.i_slot_ids h
  else intern_slow rg name h

(* One event into one slot.  The slot index is invariantly < capacity, so
   the stores use unsafe accessors — this runs once per trace event at
   capacity scale. *)
(* The hot entry takes the *cell* the timestamp lives in, not the float:
   the classical compiler boxes float arguments at out-of-line calls, so
   a [float] parameter here would cost one minor allocation per event on
   the otherwise allocation-free fast path. *)
let ring_store_cell rg (time_cell : floatarray) kind name in_if out_if reason
    id flow (pkt : Ipv4_packet.t) bytes =
  rg.ring_seen <- rg.ring_seen + 1;
  if
    ((flow * 2654435761) lxor rg.ring_xseed) land 0x3FFFFFFF
    <= rg.ring_threshold
  then begin
    let i = rg.ring_next in
    if pkt != rg.m_pkt then ring_repack rg pkt;
    let h = rg.m_hdr lor (kind lsl 37) in
    let s = rg.a_scalar and sb = i lsl 3 in
    Array.unsafe_set s sb h;
    Array.unsafe_set s (sb + 1) rg.m_src;
    Array.unsafe_set s (sb + 2) rg.m_dst;
    Array.unsafe_set s (sb + 3) id;
    Array.unsafe_set s (sb + 4) flow;
    Array.unsafe_set s (sb + 5) bytes;
    Array.unsafe_set s (sb + 6) (name_id rg name);
    Array.unsafe_set rg.a_time i (Float.Array.unsafe_get time_cell 0);
    Array.unsafe_set rg.a_payload i (Obj.repr pkt.Ipv4_packet.payload);
    if h land bit_opts <> 0 then
      Array.unsafe_set rg.a_options i pkt.Ipv4_packet.options;
    if kind = k_forward then
      Array.unsafe_set s (sb + 7)
        ((name_id rg in_if lsl 20) lor name_id rg out_if)
    else if kind = k_drop || kind = k_icmp_error then
      Array.unsafe_set rg.a_reason i reason;
    rg.ring_next <- (if i + 1 = rg.ring_capacity then 0 else i + 1);
    rg.ring_kept <- rg.ring_kept + 1
  end

(* Boxed-float convenience entry for replay and [Recorder.note], where
   the caller holds a [float] (already boxed) rather than a clock cell. *)
let ring_store rg time kind name in_if out_if reason id flow pkt bytes =
  Float.Array.unsafe_set rg.ring_scratch 0 time;
  ring_store_cell rg rg.ring_scratch kind name in_if out_if reason id flow pkt
    bytes

let ring_clear rg =
  Array.fill rg.a_payload 0 rg.ring_capacity (Obj.repr no_payload);
  Array.fill rg.a_reason 0 rg.ring_capacity no_reason;
  Array.fill rg.a_options 0 rg.ring_capacity no_options;
  (* the intern tables survive a clear: ids already stored are gone with
     the slots, and keeping the table warm is free *)
  rg.m_pkt <- dummy_pkt;
  rg.ring_next <- 0;
  rg.ring_seen <- 0;
  rg.ring_kept <- 0

(* The one decoder from a kind tag and its fields to an event: [emit]
   builds records with it and the ring rebuilds its slots with it.
   Fields the kind does not carry are ignored. *)
let event_of kind name in_iface out_iface reason frame bytes =
  match kind with
  | 0 -> Send { node = name; frame }
  | 1 -> Transmit { link = name; frame; bytes }
  | 2 -> Forward { node = name; in_iface; out_iface; frame }
  | 3 -> Drop { node = name; reason; frame }
  | 4 -> Deliver { node = name; frame }
  | 5 -> Encapsulate { node = name; frame }
  | 6 -> Decapsulate { node = name; frame }
  | _ -> Icmp_error { node = name; reason; frame }

(* Cold path: rebuild a structurally identical record from a slot.  The
   pointer-lane reads are typed by the fixed per-offset discipline of
   [ring_store]. *)
let ring_record_at rg i =
  let sb = i lsl 3 in
  let h = rg.a_scalar.(sb) in
  let pkt =
    {
      Ipv4_packet.tos = (h lsr 47) land 0xff;
      ident = (h lsr 21) land 0xffff;
      dont_fragment = h land bit_df <> 0;
      more_fragments = h land bit_mf <> 0;
      frag_offset = (h lsr 8) land 0x1fff;
      ttl = h land 0xff;
      protocol = Ipv4_packet.protocol_of_int ((h lsr 55) land 0xff);
      src = Ipv4_addr.of_int32 (Int32.of_int rg.a_scalar.(sb + 1));
      dst = Ipv4_addr.of_int32 (Int32.of_int rg.a_scalar.(sb + 2));
      (* the options slot is only written when non-empty, so the array
         may hold a stale pointer: trust the flag bit *)
      options = (if h land bit_opts <> 0 then rg.a_options.(i) else no_options);
      payload = (Obj.obj rg.a_payload.(i) : Ipv4_packet.payload);
    }
  in
  let kind = (h lsr 37) land 0x7 in
  let name id : string = Obj.obj rg.i_names.(id) in
  (* only a forward wrote its interface ids; id 0 is "" *)
  let ifaces = if kind = k_forward then rg.a_scalar.(sb + 7) else 0 in
  let event =
    event_of kind
      (name rg.a_scalar.(sb + 6))
      (name (ifaces lsr 20))
      (name (ifaces land 0xFFFFF))
      rg.a_reason.(i)
      { id = rg.a_scalar.(sb + 3); flow = rg.a_scalar.(sb + 4); pkt }
      rg.a_scalar.(sb + 5)
  in
  { time = rg.a_time.(i); event }

let ring_records rg =
  let n = ring_length rg in
  let start = if rg.ring_kept <= rg.ring_capacity then 0 else rg.ring_next in
  List.init n (fun i -> ring_record_at rg ((start + i) mod rg.ring_capacity))

let ring_store_record rg (r : record) =
  let time = r.time in
  match r.event with
  | Send { node; frame = f } ->
      ring_store rg time k_send node no_iface no_iface no_reason f.id f.flow
        f.pkt 0
  | Transmit { link; frame = f; bytes } ->
      ring_store rg time k_transmit link no_iface no_iface no_reason f.id
        f.flow f.pkt bytes
  | Forward { node; in_iface; out_iface; frame = f } ->
      ring_store rg time k_forward node in_iface out_iface no_reason f.id
        f.flow f.pkt 0
  | Drop { node; reason; frame = f } ->
      ring_store rg time k_drop node no_iface no_iface reason f.id f.flow
        f.pkt 0
  | Deliver { node; frame = f } ->
      ring_store rg time k_deliver node no_iface no_iface no_reason f.id
        f.flow f.pkt 0
  | Encapsulate { node; frame = f } ->
      ring_store rg time k_encapsulate node no_iface no_iface no_reason f.id
        f.flow f.pkt 0
  | Decapsulate { node; frame = f } ->
      ring_store rg time k_decapsulate node no_iface no_iface no_reason f.id
        f.flow f.pkt 0
  | Icmp_error { node; reason; frame = f } ->
      ring_store rg time k_icmp_error node no_iface no_iface reason f.id
        f.flow f.pkt 0

type t = {
  mutable rev_records : record list;
  mutable count : int;
  by_flow : (int, flow_entry) Hashtbl.t;
  mutable observers : (observer * (record -> unit)) list;
      (* in installation order *)
  mutable obs_fns : (record -> unit) array;
      (* flattened copy of [observers] for allocation-free dispatch *)
  mutable obs_seq : int;  (* the last observer handle handed out *)
  mutable rings : ring array;
      (* this trace's flight-recorder rings, in attachment order — fed by
         [emit] and by [record]'s replay; usually zero or one *)
  mutable enabled : bool;
      (* when false and no observer or ring is attached, [interested] is
         false and [emit] returns at once *)
  mutable wants_records : bool;
      (* cached [enabled || observers present]: whether [emit] builds a
         record, read once per event *)
  mutable time_source : floatarray;
      (* where [emit] reads the current time — the owning net points
         this at its engine's clock cell, so the fast path gets the
         timestamp with one unboxed load instead of an accessor call
         and a boxed float per event *)
}

let attach_ring t rg =
  if not (Array.memq rg t.rings) then t.rings <- Array.append t.rings [| rg |]

let detach_ring t rg =
  t.rings <- Array.of_seq (Seq.filter (fun r -> r != rg) (Array.to_seq t.rings))

let create () =
  {
    rev_records = [];
    count = 0;
    by_flow = Hashtbl.create 64;
    observers = [];
    obs_fns = [||];
    obs_seq = 0;
    rings = [||];
    enabled = true;
    wants_records = true;
    time_source = Float.Array.make 1 0.0;
  }

let set_time_source t cell = t.time_source <- cell

let rebuild_observers t =
  t.obs_fns <- Array.of_list (List.map snd t.observers);
  t.wants_records <- t.enabled || Array.length t.obs_fns > 0

let add_observer t f =
  t.obs_seq <- t.obs_seq + 1;
  t.observers <- t.observers @ [ (t.obs_seq, f) ];
  rebuild_observers t;
  t.obs_seq

let remove_observer t id =
  t.observers <- List.filter (fun (i, _) -> i <> id) t.observers;
  rebuild_observers t

let set_enabled t b =
  t.enabled <- b;
  t.wants_records <- b || Array.length t.obs_fns > 0

let enabled t = t.enabled

(* Attached observers (invariant oracle, [--trace-json] and [--pcap]
   taps) or rings (the flight recorder) override gating: those consumers
   must see every event whether or not in-memory logging was turned
   off. *)
let interested t = t.wants_records || Array.length t.rings > 0

let frame_of = function
  | Send { frame; _ }
  | Transmit { frame; _ }
  | Forward { frame; _ }
  | Drop { frame; _ }
  | Deliver { frame; _ }
  | Encapsulate { frame; _ }
  | Decapsulate { frame; _ }
  | Icmp_error { frame; _ } ->
      frame

let flow_entry t flow =
  match Hashtbl.find_opt t.by_flow flow with
  | Some e -> e
  | None ->
      let e = { f_rev_records = []; f_transmissions = 0; f_wire_bytes = 0 } in
      Hashtbl.add t.by_flow flow e;
      e

let record t ~time event =
  let r = { time; event } in
  (* The unbounded in-memory log (and the per-flow index over it) fills
     whenever a full consumer is active — a run that attaches an observer
     with tracing "off" still gets the normal log, as it always has.
     Only ring-only runs skip it, so a capacity run with just the flight
     recorder attached pays the ring store, not list/hashtable growth. *)
  if t.wants_records then begin
    t.rev_records <- r :: t.rev_records;
    t.count <- t.count + 1;
    let e = flow_entry t (frame_of event).flow in
    e.f_rev_records <- r :: e.f_rev_records;
    match event with
    | Transmit { bytes; _ } ->
        e.f_transmissions <- e.f_transmissions + 1;
        e.f_wire_bytes <- e.f_wire_bytes + bytes
    | _ -> ()
  end;
  let obs = t.obs_fns in
  for i = 0 to Array.length obs - 1 do
    obs.(i) r
  done;
  (* Replay into attached rings, so they also see the events a log or
     an observer made [emit] build, and records written by hand. *)
  let rs = t.rings in
  for i = 0 to Array.length rs - 1 do
    ring_store_record (Array.unsafe_get rs i) r
  done

(* The one emit point of the data plane.  With a log or observer it
   builds the record; with only rings it costs a handful of loads and
   stores per event; with nothing attached the ring loop runs zero
   times. *)
let emit t kind name ~in_iface ~out_iface ~reason ~id ~flow ~bytes pkt =
  if t.wants_records then
    record t
      ~time:(Float.Array.unsafe_get t.time_source 0)
      (event_of kind name in_iface out_iface reason { id; flow; pkt } bytes)
  else
    let rs = t.rings in
    for i = 0 to Array.length rs - 1 do
      ring_store_cell (Array.unsafe_get rs i) t.time_source kind name in_iface
        out_iface reason id flow pkt bytes
    done

let records t = List.rev t.rev_records

let clear t =
  t.rev_records <- [];
  t.count <- 0;
  Hashtbl.reset t.by_flow

let length t = t.count

let flows t =
  Hashtbl.fold (fun flow _ acc -> flow :: acc) t.by_flow []
  |> List.sort compare

let flow_records t ~flow =
  match Hashtbl.find_opt t.by_flow flow with
  | None -> []
  | Some e -> List.rev e.f_rev_records

let transmissions t ~flow =
  match Hashtbl.find_opt t.by_flow flow with
  | None -> 0
  | Some e -> e.f_transmissions

let wire_bytes t ~flow =
  match Hashtbl.find_opt t.by_flow flow with
  | None -> 0
  | Some e -> e.f_wire_bytes

let delivery_time t ~flow ~node =
  List.find_map
    (fun r ->
      match r.event with
      | Deliver { node = n; frame } when n = node && frame.flow = flow ->
          Some r.time
      | _ -> None)
    (flow_records t ~flow)

let delivered t ~flow ~node = delivery_time t ~flow ~node <> None

let send_time t ~flow =
  List.find_map
    (fun r ->
      match r.event with
      | Send { frame; _ } when frame.flow = flow -> Some r.time
      | _ -> None)
    (flow_records t ~flow)

let drops t ~flow =
  List.filter_map
    (fun r ->
      match r.event with
      | Drop { node; reason; frame } when frame.flow = flow ->
          Some (node, reason)
      | _ -> None)
    (flow_records t ~flow)

let path t ~flow =
  List.filter_map
    (fun r ->
      match r.event with
      | Send { node; frame }
      | Forward { node; frame; _ }
      | Deliver { node; frame }
      | Encapsulate { node; frame }
      | Decapsulate { node; frame }
        when frame.flow = flow ->
          Some node
      | _ -> None)
    (flow_records t ~flow)
  |> List.fold_left
       (fun acc node ->
         match acc with
         | last :: _ when last = node -> acc
         | _ -> node :: acc)
       []
  |> List.rev

let pp_frame fmt (f : frame_info) =
  Format.fprintf fmt "#%d/f%d %a" f.id f.flow Ipv4_packet.pp f.pkt

let pp_event fmt = function
  | Send { node; frame } -> Format.fprintf fmt "send    %-8s %a" node pp_frame frame
  | Transmit { link; frame; bytes } ->
      Format.fprintf fmt "wire    %-8s %dB %a" link bytes pp_frame frame
  | Forward { node; in_iface; out_iface; frame } ->
      Format.fprintf fmt "forward %-8s %s->%s %a" node in_iface out_iface
        pp_frame frame
  | Drop { node; reason; frame } ->
      Format.fprintf fmt "DROP    %-8s %a %a" node pp_drop_reason reason
        pp_frame frame
  | Deliver { node; frame } ->
      Format.fprintf fmt "deliver %-8s %a" node pp_frame frame
  | Encapsulate { node; frame } ->
      Format.fprintf fmt "encap   %-8s %a" node pp_frame frame
  | Decapsulate { node; frame } ->
      Format.fprintf fmt "decap   %-8s %a" node pp_frame frame
  | Icmp_error { node; reason; frame } ->
      Format.fprintf fmt "icmperr %-8s %a %a" node pp_drop_reason reason
        pp_frame frame

let pp_record fmt r = Format.fprintf fmt "%8.4f %a" r.time pp_event r.event

let dump fmt t =
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_record r) (records t)
