type fault_verdict =
  | Fault_pass
  | Fault_drop of Trace.drop_reason
  | Fault_deliver of { extra_delay : float; duplicate : bool }

type t = {
  engine : Engine.t;
  trace : Trace.t;
  mutable all_nodes : node list;  (* newest first *)
  names : (string, node) Hashtbl.t;
  mutable next_frame : int;
  mutable next_flow : int;
  mutable fault_hook :
    (link:string -> src:string -> dst:string -> fault_verdict) option;
  mutable icmp_errors : icmp_errors option;
      (* ICMP error signaling config; None (the default) keeps every drop
         silent and costs the fast path a single field load. *)
  mutable route_lookups : int;
  mutable hook_calls : int;
}

(* Opt-in ICMP error signaling: per-(node, offender) hold-down with a
   seeded LCG jitter so error emission is deterministic yet a packet storm
   cannot amplify into a synchronized error storm. *)
and icmp_errors = {
  mutable err_lcg : int;
  mutable errors_sent : int;
  err_recent : (string * Ipv4_addr.t, float) Hashtbl.t;
}

and node = {
  name : string;
  router : bool;
  net : t;
  mutable node_ifaces : iface list;
  table : Routing.table;
  mutable policy : Filter.policy;
  mutable claimed : Ipv4_addr.t list;
  mutable override : (Ipv4_packet.t -> override_action option) option;
  (* Int-keyed flat maps ({!Addr_map}) rather than generic Hashtbls: the
     protocol and ARP lookups run per delivered/emitted packet, and the
     polymorphic-hash walk over a boxed int32 key was measurable there. *)
  handlers : (node -> iface option -> Ipv4_packet.t -> unit) Addr_map.t;
  mutable observer : (Ipv4_packet.t -> unit) option;
  mutable intercept : (flow:int -> Ipv4_packet.t -> bool) option;
  arp_cache : Mac_addr.t Addr_map.t;
  arp_pending : pending Addr_map.t;
  reasm : Fragment.Reassembly.t;
  mutable locals : local list;
      (* Per-node services (UDP, TCP, ICMP), so each lives and dies with
         its world. *)
}

and local = Local : 'a Type.Id.t * 'a -> local

and iface = {
  ifname : string;
  owner : node;
  mac : Mac_addr.t;
  mutable addr : Ipv4_addr.t;
  mutable prefix : Ipv4_addr.Prefix.t;
  mutable bcast : Ipv4_addr.t;  (* [prefix]'s directed broadcast *)
  mutable mtu : int;
  mutable attachment : attachment;
  mutable up : bool;
  mutable proxy : Ipv4_addr.t list;
  mutable groups : Ipv4_addr.t list;
}

and attachment = Detached | Seg of segment | Ptp of ptp

(* A link with no bandwidth term delivers every frame [latency] after it
   is sent, so it queues its deliveries on its latency's engine lane (O(1))
   when the engine has one to give; otherwise, and on a link whose delay
   depends on the frame's size, they go on the event heap. *)
and segment = {
  seg_name : string;
  seg_latency : float;
  seg_bandwidth : float option;
  seg_lane : Engine.lane option;
  seg_loss : loss_gen option;
  mutable members : iface list;
}

and ptp = {
  ptp_name : string;
  ptp_latency : float;
  ptp_bandwidth : float option;
  ptp_lane : Engine.lane option;
  ptp_loss : loss_gen option;
  mutable ends : iface list;
}

(* Deterministic per-link loss: a seeded linear congruential generator, so
   lossy-link experiments replay identically. *)
and loss_gen = { rate : float; mutable lcg : int }

and pending = { mutable queued : (iface * frame) list; mutable tries : int }

(* [bytes] is the content's length on the wire, computed once where the
   packet enters a link, so no hop re-derives it. *)
and frame = {
  fid : int;
  flow : int;
  content : content;
  l2_dst : Mac_addr.t;
  bytes : int;
}

and content = Ip of Ipv4_packet.t | Arp_msg of arp

and arp = {
  op : [ `Request | `Reply ];
  spa : Ipv4_addr.t;
  sha : Mac_addr.t;
  tpa : Ipv4_addr.t;
}

and override_action =
  | Resubmit of Ipv4_packet.t
  | Via of {
      out : iface;
      next_hop : Ipv4_addr.t option;
      l2_dst : Mac_addr.t option;
    }
  | Discard of string

(* The one process-wide tap list: [with_tap] extends it for the length
   of its body, and [create] attaches what it holds to each new world's
   trace as observers.  No event reads it. *)
let taps : (Trace.record -> unit) list ref = ref []

(* Closure-free, so building a world allocates nothing here when no tap
   is installed, and nothing per tap beyond the observer itself. *)
let rec attach_taps trace = function
  | [] -> ()
  | tap :: rest ->
      ignore (Trace.add_observer trace tap);
      attach_taps trace rest

let with_tap tap body =
  let live = ref true in
  let outer = !taps in
  taps := outer @ [ (fun r -> if !live then tap r) ];
  Fun.protect
    ~finally:(fun () ->
      live := false;
      taps := outer)
    body

let create () =
  let engine = Engine.create () in
  let trace = Trace.create () in
  Trace.set_time_source trace (Engine.clock_cell engine);
  attach_taps trace !taps;
  {
    engine;
    trace;
    all_nodes = [];
    names = Hashtbl.create 16;
    next_frame = 0;
    next_flow = 0;
    fault_hook = None;
    icmp_errors = None;
    route_lookups = 0;
    hook_calls = 0;
  }

let set_fault_hook t f = t.fault_hook <- f

let enable_error_signaling t =
  t.icmp_errors <-
    Some { err_lcg = 0x1c3e; errors_sent = 0; err_recent = Hashtbl.create 32 }

let icmp_errors_sent t =
  match t.icmp_errors with None -> 0 | Some c -> c.errors_sent

let set_tracing t b = Trace.set_enabled t.trace b

let engine t = t.engine
let trace t = t.trace
let route_lookups t = t.route_lookups
let hook_calls t = t.hook_calls
let now t = Engine.now t.engine

let add_node t name router =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Net: node %S already exists" name);
  let node =
    {
      name;
      router;
      net = t;
      node_ifaces = [];
      table = Routing.create ();
      policy = Filter.accept_all;
      claimed = [];
      override = None;
      handlers = Addr_map.create ();
      observer = None;
      intercept = None;
      arp_cache = Addr_map.create ();
      arp_pending = Addr_map.create ();
      reasm = Fragment.Reassembly.create ();
      locals = [];
    }
  in
  t.all_nodes <- node :: t.all_nodes;
  Hashtbl.add t.names name node;
  node

type 'a key = 'a Type.Id.t

let new_key () = Type.Id.make ()

let local (type a) node (key : a key) =
  let rec find : local list -> a option = function
    | [] -> None
    | Local (k, v) :: rest -> (
        match Type.Id.provably_equal key k with
        | Some Type.Equal -> Some v
        | None -> find rest)
  in
  find node.locals

let set_local node key v =
  let uid = Type.Id.uid key in
  node.locals <-
    Local (key, v)
    :: List.filter (fun (Local (k, _)) -> Type.Id.uid k <> uid) node.locals

let add_host t name = add_node t name false
let add_router t name = add_node t name true
let find_node t name = Hashtbl.find_opt t.names name
let node_name n = n.name
let nodes t = List.rev t.all_nodes
let node_engine n = n.net.engine
let node_now n = Engine.now n.net.engine

(* NaN fails the first test: it would otherwise read as "no loss". *)
let make_loss_gen ?loss ?(loss_seed = 0x5eed) () =
  match loss with
  | Some rate ->
      if not (rate < 1.0) then invalid_arg "Net: loss rate must be < 1.0";
      if rate < 0.0 then invalid_arg "Net: loss rate must be >= 0";
      if rate > 0.0 then Some { rate; lcg = loss_seed land 0x3fffffff }
      else None
  | None -> None

let loss_roll = function
  | None -> false
  | Some g ->
      g.lcg <- ((g.lcg * 1103515245) + 12345) land 0x3fffffff;
      float_of_int g.lcg /. 1073741824.0 < g.rate

(* Checks a new link's delay terms and takes its lane.  A bad latency
   would otherwise surface as the engine's error from inside the first
   frame's [emit], and a bad bandwidth as an unlimited one. *)
let link_lane t ~link ~latency ~bandwidth =
  if not (latency >= 0.0) then
    invalid_arg
      (Printf.sprintf "Net: link %S: latency must be >= 0 (got %g)" link
         latency);
  match bandwidth with
  | None -> Engine.lane t.engine ~delay:latency
  | Some bps ->
      if not (bps > 0.0) then
        invalid_arg
          (Printf.sprintf "Net: link %S: bandwidth must be > 0 (got %g)" link
             bps);
      None

let ethernet_mtu = 1500

let add_segment t ~name ?(latency = 0.0005) ?bandwidth ?loss ?loss_seed () =
  let loss = make_loss_gen ?loss ?loss_seed () in
  let lane = link_lane t ~link:name ~latency ~bandwidth in
  {
    seg_name = name;
    seg_latency = latency;
    seg_bandwidth = bandwidth;
    seg_lane = lane;
    seg_loss = loss;
    members = [];
  }

let check_fresh_iface node ifname =
  if List.exists (fun i -> i.ifname = ifname) node.node_ifaces then
    invalid_arg
      (Printf.sprintf "Net: node %S already has interface %S" node.name ifname)

let install_connected_route iface =
  Routing.add iface.owner.table ~prefix:iface.prefix ~iface:iface.ifname ()

let attach node segment ~ifname ~addr ~prefix =
  check_fresh_iface node ifname;
  let iface =
    {
      ifname;
      owner = node;
      mac = Mac_addr.fresh ();
      addr;
      prefix;
      bcast = Ipv4_addr.Prefix.broadcast_addr prefix;
      mtu = ethernet_mtu;
      attachment = Seg segment;
      up = true;
      proxy = [];
      groups = [];
    }
  in
  node.node_ifaces <- node.node_ifaces @ [ iface ];
  segment.members <- iface :: segment.members;
  install_connected_route iface;
  iface

let p2p t ?(latency = 0.010) ?bandwidth ?(mtu = 1500) ?loss ?loss_seed ~prefix
    (node_a, name_a, addr_a) (node_b, name_b, addr_b) =
  check_fresh_iface node_a name_a;
  check_fresh_iface node_b name_b;
  let name = node_a.name ^ "<->" ^ node_b.name in
  let loss = make_loss_gen ?loss ?loss_seed () in
  let lane = link_lane t ~link:name ~latency ~bandwidth in
  let link =
    {
      ptp_name = name;
      ptp_latency = latency;
      ptp_bandwidth = bandwidth;
      ptp_lane = lane;
      ptp_loss = loss;
      ends = [];
    }
  in
  let mk node ifname addr =
    let iface =
      {
        ifname;
        owner = node;
        mac = Mac_addr.fresh ();
        addr;
        prefix;
        bcast = Ipv4_addr.Prefix.broadcast_addr prefix;
        mtu;
        attachment = Ptp link;
        up = true;
        proxy = [];
        groups = [];
      }
    in
    node.node_ifaces <- node.node_ifaces @ [ iface ];
    link.ends <- link.ends @ [ iface ];
    install_connected_route iface;
    iface
  in
  ignore t;
  let ia = mk node_a name_a addr_a in
  let ib = mk node_b name_b addr_b in
  (ia, ib)

let iface_name i = i.ifname
let iface_addr i = i.addr
let iface_prefix i = i.prefix

let iface_mac i =
  match i.attachment with Seg _ -> Some i.mac | Ptp _ | Detached -> None

let set_iface_addr i ~addr ~prefix =
  (* Only this interface's connected route: another iface may legitimately
     hold a route for the same prefix. *)
  Routing.remove i.owner.table ~iface:i.ifname ~prefix:i.prefix ();
  i.addr <- addr;
  i.prefix <- prefix;
  i.bcast <- Ipv4_addr.Prefix.broadcast_addr prefix;
  install_connected_route i

let detach i =
  (match i.attachment with
  | Seg s -> s.members <- List.filter (fun m -> m != i) s.members
  | Ptp l -> l.ends <- List.filter (fun m -> m != i) l.ends
  | Detached -> ());
  i.attachment <- Detached;
  i.up <- false;
  Routing.remove_iface i.owner.table ~iface:i.ifname

let reattach i segment =
  (match i.attachment with
  | Detached -> ()
  | Seg _ | Ptp _ -> detach i);
  i.attachment <- Seg segment;
  i.mtu <- ethernet_mtu;
  i.up <- true;
  segment.members <- i :: segment.members;
  install_connected_route i

let ifaces node = node.node_ifaces

let rec find_iface_in name = function
  | [] -> None
  | i :: rest ->
      if String.equal i.ifname name then Some i else find_iface_in name rest

let find_iface node name = find_iface_in name node.node_ifaces
let routing node = node.table
let set_filter node p = node.policy <- p

(* The per-hop address tests compare the representations that
   [Ipv4_addr.t] ([private int32]) and [Mac_addr.t] ([private int])
   expose, with [=] at those types, which compiles to one inline compare.
   Dune's dev profile builds every module [-opaque], so a call from here
   to [Ipv4_addr.equal], [Ipv4_addr.is_multicast] or [Mac_addr.equal] is
   never inlined, and a hop makes several of these tests. *)
let[@inline] same_addr (a : Ipv4_addr.t) (b : Ipv4_addr.t) =
  (a :> int32) = (b :> int32)

let[@inline] is_multicast (a : Ipv4_addr.t) =
  Int32.logand (a :> int32) 0xf0000000l = 0xe0000000l

let[@inline] is_limited_broadcast (a : Ipv4_addr.t) = (a :> int32) = -1l

let[@inline] same_mac (a : Mac_addr.t) (b : Mac_addr.t) =
  (a :> int) = (b :> int)

(* Closure-free membership tests: [owns_address] runs on every packet a
   node receives. *)
let rec mem_addr addr = function
  | [] -> false
  | a :: rest -> same_addr a addr || mem_addr addr rest

let claim_address node addr =
  if not (mem_addr addr node.claimed) then
    node.claimed <- addr :: node.claimed

let unclaim_address node addr =
  node.claimed <- List.filter (fun a -> not (Ipv4_addr.equal a addr)) node.claimed

let rec up_iface_has addr = function
  | [] -> false
  | i :: rest -> (i.up && same_addr i.addr addr) || up_iface_has addr rest

let owns_address node addr =
  up_iface_has addr node.node_ifaces || mem_addr addr node.claimed

let set_route_override node f = node.override <- f

let set_protocol_handler node protocol handler =
  Addr_map.replace node.handlers (Ipv4_packet.protocol_to_int protocol) handler

let set_delivery_observer node f = node.observer <- f
let set_intercept node f = node.intercept <- f

let add_proxy_arp _node iface addr =
  if not (mem_addr addr iface.proxy) then
    iface.proxy <- addr :: iface.proxy

let remove_proxy_arp _node iface addr =
  iface.proxy <- List.filter (fun a -> not (Ipv4_addr.equal a addr)) iface.proxy

let proxy_arp_entries node =
  List.concat_map (fun iface -> List.rev iface.proxy) node.node_ifaces

let arp_lookup node addr = Addr_map.find node.arp_cache (Addr_map.of_addr addr)
let clear_arp node = Addr_map.reset node.arp_cache

let neighbour_on_segment node addr =
  List.find_map
    (fun i ->
      match i.attachment with
      | Seg s ->
          List.find_map
            (fun m ->
              if m != i && m.up && Ipv4_addr.equal m.addr addr then
                Some (i, m.mac)
              else None)
            s.members
      | Ptp _ | Detached -> None)
    node.node_ifaces

let join_group _node iface group =
  if not (Ipv4_addr.is_multicast group) then
    invalid_arg
      (Printf.sprintf "Net.join_group: %s is not multicast"
         (Ipv4_addr.to_string group));
  if not (mem_addr group iface.groups) then
    iface.groups <- group :: iface.groups

let new_flow t =
  t.next_flow <- t.next_flow + 1;
  t.next_flow

let new_frame_id node =
  let t = node.net in
  t.next_frame <- t.next_frame + 1;
  t.next_frame

(* Every trace site of the data plane calls [Trace.emit] through these.
   It decides once per event whether to build a record, feed the rings
   or return, and the arguments are values the site already holds, so a
   world nobody traces allocates nothing for tracing. *)
let trace_at node kind reason ~id ~flow pkt =
  Trace.emit node.net.trace kind node.name ~in_iface:"" ~out_iface:"" ~reason
    ~id ~flow ~bytes:0 pkt

let trace_event node kind ~id ~flow pkt =
  trace_at node kind Trace.no_reason ~id ~flow pkt

let trace_drop node reason (f : frame) pkt =
  trace_at node Trace.k_drop reason ~id:f.fid ~flow:f.flow pkt

let trace_forward node ~in_iface ~out_iface (f : frame) pkt =
  Trace.emit node.net.trace Trace.k_forward node.name ~in_iface ~out_iface
    ~reason:Trace.no_reason ~id:f.fid ~flow:f.flow ~bytes:0 pkt

let ip_frame node ~flow ~bytes l2_dst pkt =
  { fid = new_frame_id node; flow; content = Ip pkt; l2_dst; bytes }

(* A packet that dies before it reaches a wire still takes a frame id, so
   the numbering does not depend on whether anything traces it. *)
let drop_unsent node ~flow reason pkt =
  trace_at node Trace.k_drop reason ~id:(new_frame_id node) ~flow pkt

(* The world counts its routing-table lookups and mobility-hook calls
   where they happen, whatever its trace has attached. *)
let route node dst =
  let t = node.net in
  t.route_lookups <- t.route_lookups + 1;
  Routing.lookup node.table dst

let count_hook_call node =
  let t = node.net in
  t.hook_calls <- t.hook_calls + 1

(* A packet reaches its node's stack: the Deliver trace, the delivery
   observer, then the protocol handler. *)
let hand_up node in_iface ~id ~flow pkt =
  trace_event node Trace.k_deliver ~id ~flow pkt;
  (match node.observer with Some f -> f pkt | None -> ());
  let proto = Ipv4_packet.protocol_to_int pkt.Ipv4_packet.protocol in
  match Addr_map.find node.handlers proto with
  | Some handler -> handler node in_iface pkt
  | None -> ()

let same_segment a b =
  List.exists
    (fun ia ->
      match ia.attachment with
      | Seg s -> List.exists (fun ib -> ib.owner == b && ib.up) s.members
      | Ptp _ | Detached -> false)
    a.node_ifaces

(* ---------------------------------------------------------------- *)
(* Data plane                                                        *)
(* ---------------------------------------------------------------- *)

(* An ARP message for IPv4 over Ethernet (RFC 826). *)
let arp_bytes = 28

(* A router forwards a packet that carries IP options this much later:
   "current IP routers typically handle packets with options much more
   slowly than normal unadorned IP packets" (§4).  Experiment A1 measures
   the consequence for loose-source-routed Mobile IP. *)
let option_delay = 0.001

(* The per-(node, offender) ICMP error hold-down, jittered up to +25%. *)
let error_hold_down = 1.0

(* A link without a bandwidth term returns its latency itself, boxed
   once in the link record, rather than a fresh sum. *)
let link_delay ~latency ~bandwidth bytes =
  match bandwidth with
  | None -> latency
  | Some bps -> latency +. (float_of_int (bytes * 8) /. bps)

let rec deliver_frame_to iface frame =
  if iface.up then
    match frame.content with
    | Arp_msg a -> arp_input iface a
    | Ip pkt -> ip_input iface frame pkt

(* Put a frame on the wire of [out]'s link.  [l2_dst] must already be
   resolved for segments. *)
and emit out frame =
  let node = out.owner in
  (match frame.content with
  | Ip pkt ->
      let link_name =
        match out.attachment with
        | Seg s -> s.seg_name
        | Ptp l -> l.ptp_name
        | Detached -> "detached"
      in
      Trace.emit node.net.trace Trace.k_transmit link_name ~in_iface:""
        ~out_iface:"" ~reason:Trace.no_reason ~id:frame.fid ~flow:frame.flow
        ~bytes:frame.bytes pkt
  | Arp_msg _ -> ());
  match out.attachment with
  | Detached -> (
      match frame.content with
      | Ip pkt -> trace_drop node Trace.Link_down frame pkt
      | Arp_msg _ -> ())
  | Ptp l ->
      if loss_roll l.ptp_loss then record_link_loss node frame
      else
        let delay =
          link_delay ~latency:l.ptp_latency ~bandwidth:l.ptp_bandwidth
            frame.bytes
        in
        deliver_to_others node ~link:l.ptp_name ~lane:l.ptp_lane ~delay out
          frame l.ends
  | Seg s ->
      if loss_roll s.seg_loss then record_link_loss node frame
      else
        let delay =
          link_delay ~latency:s.seg_latency ~bandwidth:s.seg_bandwidth
            frame.bytes
        in
        if same_mac frame.l2_dst Mac_addr.broadcast then
          deliver_to_others node ~link:s.seg_name ~lane:s.seg_lane ~delay out
            frame s.members
        else
          deliver_to_mac node ~link:s.seg_name ~lane:s.seg_lane ~delay frame
            s.members

(* Fan-out over a link's attachments in list order, with no closure and no
   filtered copy of the list: to every attachment but the sender's, or to
   every one that owns the frame's destination MAC. *)
and deliver_to_others node ~link ~lane ~delay out frame = function
  | [] -> ()
  | m :: rest ->
      if m != out then fault_deliver node ~link ~lane ~delay m frame;
      deliver_to_others node ~link ~lane ~delay out frame rest

and deliver_to_mac node ~link ~lane ~delay frame = function
  | [] -> ()
  | m :: rest ->
      if same_mac m.mac frame.l2_dst then
        fault_deliver node ~link ~lane ~delay m frame;
      deliver_to_mac node ~link ~lane ~delay frame rest

(* Per-target delivery, filtered through the network's fault plan (if any).
   The hook sees the link name and both node names; it can drop the copy
   (with a trace reason), delay it, or duplicate it.  A copy it passes
   keeps the link's lane; one it delays goes on the heap. *)
and fault_deliver node ~link ~lane ~delay target frame =
  match node.net.fault_hook with
  | None -> schedule_delivery node lane delay target frame
  | Some hook -> (
      match hook ~link ~src:node.name ~dst:target.owner.name with
      | Fault_pass -> schedule_delivery node lane delay target frame
      | Fault_drop reason -> record_fault_drop node reason frame
      | Fault_deliver { extra_delay; duplicate } ->
          schedule_delivery node None (delay +. extra_delay) target frame;
          if duplicate then
            schedule_delivery node None (delay +. extra_delay) target frame)

and schedule_delivery node lane delay target frame =
  let deliver () = deliver_frame_to target frame in
  match lane with
  | Some l -> Engine.append l deliver
  | None -> Engine.after node.net.engine delay deliver

and record_fault_drop node reason frame =
  match frame.content with
  | Ip pkt -> trace_drop node reason frame pkt
  | Arp_msg _ -> ()

and record_link_loss node frame = record_fault_drop node Trace.Link_loss frame

and send_arp out ~l2_dst arp =
  let node = out.owner in
  let frame =
    {
      fid = new_frame_id node;
      flow = 0;
      content = Arp_msg arp;
      l2_dst;
      bytes = arp_bytes;
    }
  in
  emit out frame

and arp_request_retry out next_hop =
  let node = out.owner in
  match Addr_map.find node.arp_pending (Addr_map.of_addr next_hop) with
  | None -> ()
  | Some pending when pending.tries >= 3 ->
      Addr_map.remove node.arp_pending (Addr_map.of_addr next_hop);
      List.iter
        (fun (_, frame) ->
          match frame.content with
          | Ip pkt ->
              trace_drop node Trace.Arp_unresolved frame pkt;
              (* Dead next hop: three unanswered ARP requests.  Signal the
                 sender rather than black-holing the queued packets. *)
              send_icmp_error node ~reason:Trace.Arp_unresolved
                ~code:Icmp_wire.Host_unreachable ~src:out.addr pkt
          | Arp_msg _ -> ())
        pending.queued
  | Some pending ->
      pending.tries <- pending.tries + 1;
      send_arp out ~l2_dst:Mac_addr.broadcast
        { op = `Request; spa = out.addr; sha = out.mac; tpa = next_hop };
      Engine.after node.net.engine 0.5 (fun () ->
          arp_request_retry out next_hop)

(* Park a frame until [next_hop]'s MAC is known, asking for it if no
   request is out yet. *)
and arp_queue out next_hop frame =
  let node = out.owner in
  match Addr_map.find node.arp_pending (Addr_map.of_addr next_hop) with
  | Some pending -> pending.queued <- pending.queued @ [ (out, frame) ]
  | None ->
      Addr_map.replace node.arp_pending
        (Addr_map.of_addr next_hop)
        { queued = [ (out, frame) ]; tries = 0 };
      arp_request_retry out next_hop

and arp_input iface arp =
  let node = iface.owner in
  if not (Ipv4_addr.equal arp.spa Ipv4_addr.any) then begin
    Addr_map.replace node.arp_cache (Addr_map.of_addr arp.spa) arp.sha;
    (* Flush any frames waiting on this mapping. *)
    match Addr_map.find node.arp_pending (Addr_map.of_addr arp.spa) with
    | Some pending ->
        Addr_map.remove node.arp_pending (Addr_map.of_addr arp.spa);
        List.iter
          (fun (out, f) -> emit out { f with l2_dst = arp.sha })
          pending.queued
    | None -> ()
  end;
  match arp.op with
  | `Reply -> ()
  | `Request ->
      let answers =
        (iface.up && Ipv4_addr.equal iface.addr arp.tpa)
        || mem_addr arp.tpa iface.proxy
      in
      if answers then
        send_arp iface ~l2_dst:arp.sha
          { op = `Reply; spa = arp.tpa; sha = iface.mac; tpa = arp.spa }

(* [bytes] is [pkt]'s length: computed by the sender, or carried over
   from the frame a forwarded packet arrived in (a TTL decrement keeps
   it). *)
and ip_output node ~out ~next_hop ?l2_dst ~flow ~bytes pkt =
  if not out.up then drop_unsent node ~flow Trace.Link_down pkt
  else if bytes <= out.mtu then
    transmit node ~out ~next_hop ~l2_dst ~flow ~bytes pkt
  else
    match Fragment.fragment ~mtu:out.mtu pkt with
    | Error _ ->
        drop_unsent node ~flow Trace.Mtu_exceeded pkt;
        (* RFC 1191-style feedback so senders can adapt. *)
        if pkt.Ipv4_packet.protocol <> Ipv4_packet.P_icmp then begin
          let context = Bytes.create 0 in
          let icmp =
            Icmp_wire.Dest_unreachable
              { code = Icmp_wire.Fragmentation_needed; context }
          in
          let reply =
            Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src:out.addr
              ~dst:pkt.Ipv4_packet.src (Ipv4_packet.Icmp icmp)
          in
          originate node ~flow:(new_flow node.net) reply
        end
    | Ok pieces ->
        List.iter
          (fun piece ->
            transmit node ~out ~next_hop ~l2_dst ~flow
              ~bytes:(Ipv4_packet.byte_length piece) piece)
          pieces

(* One frame onto [out]'s link.  The link-layer destination is settled
   before the frame is built, so the frame is built once: broadcast on a
   point-to-point link and for broadcast or multicast destinations, else
   the forced MAC or the next hop's cached one.  An unresolved next hop
   parks the frame on ARP. *)
and transmit node ~out ~next_hop ~l2_dst ~flow ~bytes pkt =
  match out.attachment with
  | Ptp _ | Detached ->
      emit out (ip_frame node ~flow ~bytes Mac_addr.broadcast pkt)
  | Seg _ -> (
      match l2_dst with
      | Some mac -> emit out (ip_frame node ~flow ~bytes mac pkt)
      | None ->
          let dst = pkt.Ipv4_packet.dst in
          if
            is_limited_broadcast dst || is_multicast dst
            || same_addr dst out.bcast
          then emit out (ip_frame node ~flow ~bytes Mac_addr.broadcast pkt)
          else
            match
              Addr_map.find out.owner.arp_cache (Addr_map.of_addr next_hop)
            with
            | Some mac -> emit out (ip_frame node ~flow ~bytes mac pkt)
            | None ->
                arp_queue out next_hop
                  (ip_frame node ~flow ~bytes Mac_addr.broadcast pkt))

and ip_input iface frame pkt =
  let node = iface.owner in
  match Filter.evaluate node.policy ~in_iface:iface.ifname pkt with
  | Filter.Reject reason ->
      trace_drop node reason frame pkt;
      (* §7.1.2: a filtering router that signals its refusal lets the
         sender adapt its delivery method instead of timing out. *)
      send_icmp_error node ~reason ~code:Icmp_wire.Admin_prohibited
        ~src:iface.addr pkt
  | Filter.Pass ->
      let dst = pkt.Ipv4_packet.dst in
      let local =
        owns_address node dst || is_limited_broadcast dst
        || same_addr dst iface.bcast
        || (is_multicast dst && mem_addr dst iface.groups)
      in
      if local then deliver node (Some iface) frame pkt
      else if is_multicast dst || is_limited_broadcast dst
      then (* not joined / not ours: ignore silently *) ()
      else if node.router then forward node iface frame pkt
      else trace_drop node Trace.Not_for_me frame pkt

(* Only a fragment goes through reassembly, so a whole packet is delivered
   without boxing it or the clock. *)
and deliver node in_iface frame pkt =
  if not (Ipv4_packet.is_fragment pkt) then
    deliver_whole node in_iface frame pkt
  else
    match
      Fragment.Reassembly.add node.reasm ~now:(Engine.now node.net.engine) pkt
    with
    | None -> (* incomplete datagram; wait for more fragments *) ()
    | Some whole -> deliver_whole node in_iface frame whole

and deliver_whole node in_iface frame whole =
  (* Loose source routing: a packet addressed to us whose route is not
     exhausted is rewritten toward its next listed hop (RFC 791). *)
  match Ipv4_options.lsr_next_hop whole.Ipv4_packet.options with
  | Some next -> (
      match
        Ipv4_options.advance_lsr whole.Ipv4_packet.options
          ~here:whole.Ipv4_packet.dst
      with
      | Some options ->
          let rerouted =
            { whole with Ipv4_packet.dst = next; options }
          in
          trace_forward node ~in_iface:"lsr" ~out_iface:"lsr" frame rerouted;
          originate node ~flow:frame.flow rerouted
      | None -> ())
  | None -> deliver_local node in_iface frame whole

and deliver_local node in_iface frame whole =
  let consumed =
    match node.intercept with
    | Some hook ->
        count_hook_call node;
        hook ~flow:frame.flow whole
    | None -> false
  in
  if not consumed then
    hand_up node in_iface ~id:frame.fid ~flow:frame.flow whole

and forward node in_iface frame pkt =
  match Ipv4_packet.decrement_ttl pkt with
  | exception Ipv4_packet.Ttl_expired ->
      trace_drop node Trace.Ttl_expired frame pkt
  | pkt -> (
      match route node pkt.Ipv4_packet.dst with
      | None ->
          trace_drop node Trace.No_route frame pkt;
          send_icmp_error node ~reason:Trace.No_route
            ~code:Icmp_wire.Host_unreachable ~src:in_iface.addr pkt
      | Some route -> (
          match find_iface node route.Routing.iface with
          | None ->
              trace_drop node Trace.No_route frame pkt;
              send_icmp_error node ~reason:Trace.No_route
                ~code:Icmp_wire.Host_unreachable ~src:in_iface.addr pkt
          | Some out ->
              trace_forward node ~in_iface:in_iface.ifname
                ~out_iface:out.ifname frame pkt;
              let next_hop =
                match route.Routing.gateway with
                | Some g -> g
                | None -> pkt.Ipv4_packet.dst
              in
              (* Optioned packets take the router's slow path (§4). *)
              if Ipv4_options.has_options pkt.Ipv4_packet.options then
                Engine.after node.net.engine option_delay (fun () ->
                    ip_output node ~out ~next_hop ~flow:frame.flow
                      ~bytes:frame.bytes pkt)
              else
                ip_output node ~out ~next_hop ~flow:frame.flow
                  ~bytes:frame.bytes pkt))

(* Answer a drop with a real RFC 792 error quoting the offending datagram
   (IP header + 8 payload bytes), so senders get fast negative feedback
   instead of a silent black hole.  Opt-in per net
   ([enable_error_signaling]); never errors about ICMP, unspecified,
   broadcast or multicast traffic; held down per (node, offender) with
   seeded jitter. *)
and send_icmp_error node ~reason ~code ~src pkt =
  match node.net.icmp_errors with
  | None -> ()
  | Some cfg ->
      let offender = pkt.Ipv4_packet.src in
      if
        pkt.Ipv4_packet.protocol <> Ipv4_packet.P_icmp
        && (not (Ipv4_addr.equal src Ipv4_addr.any))
        && (not (Ipv4_addr.equal offender Ipv4_addr.any))
        && (not (Ipv4_addr.equal offender Ipv4_addr.broadcast))
        && (not (Ipv4_addr.is_multicast offender))
        && (not (Ipv4_addr.equal pkt.Ipv4_packet.dst Ipv4_addr.broadcast))
        && not (Ipv4_addr.is_multicast pkt.Ipv4_packet.dst)
      then begin
        let key = (node.name, offender) in
        let t_now = Engine.now node.net.engine in
        let due =
          match Hashtbl.find_opt cfg.err_recent key with
          | None -> true
          | Some last ->
              cfg.err_lcg <-
                ((cfg.err_lcg * 1103515245) + 12345) land 0x3fffffff;
              let jitter = float_of_int cfg.err_lcg /. 1073741824.0 in
              t_now -. last >= error_hold_down *. (1.0 +. (0.25 *. jitter))
        in
        if due then begin
          Hashtbl.replace cfg.err_recent key t_now;
          cfg.errors_sent <- cfg.errors_sent + 1;
          let context = Icmp_wire.quote_context (Ipv4_packet.encode pkt) in
          let icmp = Icmp_wire.Dest_unreachable { code; context } in
          let reply =
            Ipv4_packet.make ~protocol:Ipv4_packet.P_icmp ~src ~dst:offender
              (Ipv4_packet.Icmp icmp)
          in
          let flow = new_flow node.net in
          trace_at node Trace.k_icmp_error reason ~id:0 ~flow reply;
          originate node ~flow reply
        end
      end

(* Origin transmission: loopback, override hook, routing table. *)
and originate ?(depth = 0) node ~flow ?via ?l2_dst pkt =
  if depth > 8 then
    invalid_arg "Net.send: route-override resubmit loop (depth > 8)"
  else if owns_address node pkt.Ipv4_packet.dst then begin
    (* Loopback delivery: never touches a wire. *)
    let pkt =
      if Ipv4_addr.equal pkt.Ipv4_packet.src Ipv4_addr.any then
        { pkt with Ipv4_packet.src = pkt.Ipv4_packet.dst }
      else pkt
    in
    let f =
      ip_frame node ~flow ~bytes:(Ipv4_packet.byte_length pkt)
        Mac_addr.broadcast pkt
    in
    trace_event node Trace.k_send ~id:f.fid ~flow pkt;
    deliver node None f pkt
  end
  else begin
    let decision =
      match node.override with
      | Some hook ->
          count_hook_call node;
          hook pkt
      | None -> None
    in
    match decision with
    | Some (Resubmit pkt') ->
        originate ~depth:(depth + 1) node ~flow ?via ?l2_dst pkt'
    | Some (Discard reason) -> drop_unsent node ~flow (Trace.Custom reason) pkt
    | Some (Via { out; next_hop; l2_dst = forced_l2 }) ->
        let next_hop = Option.value next_hop ~default:pkt.Ipv4_packet.dst in
        send_via node ~flow out ~next_hop ~l2_dst:forced_l2 pkt
    | None -> (
        match via with
        | Some out ->
            send_via node ~flow out ~next_hop:pkt.Ipv4_packet.dst ~l2_dst pkt
        | None -> (
            match route node pkt.Ipv4_packet.dst with
            | None -> drop_unsent node ~flow Trace.No_route pkt
            | Some route -> (
                match find_iface node route.Routing.iface with
                | None -> drop_unsent node ~flow Trace.No_route pkt
                | Some out ->
                    let next_hop =
                      match route.Routing.gateway with
                      | Some g -> g
                      | None -> pkt.Ipv4_packet.dst
                    in
                    send_via node ~flow out ~next_hop ~l2_dst pkt)))
  end

(* Fill an unspecified source from the outgoing interface only after the
   route-override hook has seen the packet: an unbound source is itself a
   signal the mobility policy keys on (§7.1.1). *)
and send_via node ~flow out ~next_hop ~l2_dst pkt =
  let pkt =
    if Ipv4_addr.equal pkt.Ipv4_packet.src Ipv4_addr.any then
      { pkt with Ipv4_packet.src = out.addr }
    else pkt
  in
  trace_event node Trace.k_send ~id:(new_frame_id node) ~flow pkt;
  ip_output node ~out ~next_hop ?l2_dst ~flow
    ~bytes:(Ipv4_packet.byte_length pkt) pkt

let send node ?flow ?via ?l2_dst pkt =
  let flow = match flow with Some f -> f | None -> new_flow node.net in
  originate node ~flow ?via ?l2_dst pkt;
  flow

let inject_local node ~flow pkt =
  hand_up node None ~id:(new_frame_id node) ~flow pkt

let gratuitous_arp _node iface addr =
  send_arp iface ~l2_dst:Mac_addr.broadcast
    { op = `Reply; spa = addr; sha = iface.mac; tpa = addr }

let run ?until t = Engine.run ?until t.engine
let stats t = Engine.stats t.engine
