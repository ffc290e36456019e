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
let no_reason = Ttl_expired

(* The one decoder from a kind tag and its fields to an event: [emit]
   builds records with it and [ring_tail] rebuilds a ring's slots with
   it.  Fields the kind does not carry are ignored. *)
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

(* Flight-recorder rings: the last [capacity] events, one preallocated
   array per field [emit] takes, written at a wrapping cursor.

   A ring keeps no [record]: [emit] stores the fields it was handed, so
   a ring-only trace builds nothing and allocates nothing per event.
   Building a record per event allocates, and retaining records promotes
   every hop's record/event/frame graph to the major heap to die there.
   The packet is the one the data plane already built.

   Rings attach to one trace, like observers: each [t] holds its own
   ring array, so a recorder sees only its own world's events when a
   process runs many worlds (a soak sweep, the E20 ladder), and nothing
   process-wide keeps a dropped world's ring alive. *)
type ring = {
  times : float array;
  kinds : kind array;
  ids : int array;
  flows : int array;
  sizes : int array;  (* transmit bytes *)
  names : string array;  (* node, or link for a transmit *)
  in_ifaces : string array;  (* forward only *)
  out_ifaces : string array;  (* forward only *)
  reasons : drop_reason array;  (* drop and icmp-error only *)
  pkts : Ipv4_packet.t array;
  mutable next : int;  (* the slot the next event goes to *)
  mutable seen : int;  (* events stored since the ring was made *)
}

(* What a slot holds until its first event; [ring_tail] never reads it. *)
let unwritten =
  Ipv4_packet.make ~protocol:Ipv4_packet.P_udp ~src:(Ipv4_addr.of_int32 0l)
    ~dst:(Ipv4_addr.of_int32 0l) (Ipv4_packet.Raw Bytes.empty)

let make_ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.make_ring: capacity must be positive";
  {
    times = Array.make capacity 0.0;
    kinds = Array.make capacity k_send;
    ids = Array.make capacity 0;
    flows = Array.make capacity 0;
    sizes = Array.make capacity 0;
    names = Array.make capacity "";
    in_ifaces = Array.make capacity "";
    out_ifaces = Array.make capacity "";
    reasons = Array.make capacity no_reason;
    pkts = Array.make capacity unwritten;
    next = 0;
    seen = 0;
  }

let ring_seen rg = rg.seen

(* Cold path: the [n] slots before the cursor, oldest first. *)
let ring_tail rg =
  let capacity = Array.length rg.kinds in
  let n = min rg.seen capacity in
  List.init n (fun k ->
      let i = (rg.next - n + k + capacity) mod capacity in
      let frame = { id = rg.ids.(i); flow = rg.flows.(i); pkt = rg.pkts.(i) } in
      {
        time = rg.times.(i);
        event =
          event_of rg.kinds.(i) rg.names.(i) rg.in_ifaces.(i)
            rg.out_ifaces.(i) rg.reasons.(i) frame rg.sizes.(i);
      })

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
      (* this trace's flight-recorder rings, in attachment order, fed
         only by [emit]; usually zero or one *)
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

(* Attached observers ([--trace-json] and [--pcap] taps) or rings (the
   flight recorder) override gating: those consumers
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
  (* The unbounded log (and the per-flow index over it) fills whenever
     the log is on or an observer listens, even with tracing "off".  A
     trace with only rings never fills it: [emit] does not call here. *)
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
  done

(* The one emit point of the data plane, and the only way into a ring.
   A slot index is below the ring's capacity, so the stores skip bounds
   checks, and the time goes from the clock cell to the ring unboxed.
   A pointer store pays the write barrier, so the interfaces and the
   reason are stored only by the kinds that carry them. *)
let emit t kind name ~in_iface ~out_iface ~reason ~id ~flow ~bytes pkt =
  if t.wants_records then
    record t
      ~time:(Float.Array.unsafe_get t.time_source 0)
      (event_of kind name in_iface out_iface reason { id; flow; pkt } bytes);
  let rs = t.rings in
  for r = 0 to Array.length rs - 1 do
    let rg = Array.unsafe_get rs r in
    let i = rg.next in
    Array.unsafe_set rg.times i (Float.Array.unsafe_get t.time_source 0);
    Array.unsafe_set rg.kinds i kind;
    Array.unsafe_set rg.ids i id;
    Array.unsafe_set rg.flows i flow;
    Array.unsafe_set rg.sizes i bytes;
    Array.unsafe_set rg.names i name;
    Array.unsafe_set rg.pkts i pkt;
    if kind = k_forward then begin
      Array.unsafe_set rg.in_ifaces i in_iface;
      Array.unsafe_set rg.out_ifaces i out_iface
    end
    else if kind = k_drop || kind = k_icmp_error then
      Array.unsafe_set rg.reasons i reason;
    rg.next <- (if i + 1 = Array.length rg.kinds then 0 else i + 1);
    rg.seen <- rg.seen + 1
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
