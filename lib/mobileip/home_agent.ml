open Netsim

type t = {
  ha_node : Net.node;
  home_iface : Net.iface;
  auth_key : string;
  encap : Encap.mode;
  notify_correspondents : bool;
  notify_interval : float;
  max_lifetime : int;
  mutable binding_table : Types.binding list;
  last_notified : (Ipv4_addr.t, float) Hashtbl.t;
  mutable tunneled : int;
  mutable reverse_tunneled : int;
  mutable accepted : int;
  mutable denied : int;
  mutable next_tunnel_ident : int;
  mutable mcast_subs : (Ipv4_addr.t * Ipv4_addr.t) list;
      (* (group, subscriber home address) *)
  mutable mcast_relayed : int;
  mutable up : bool;  (* false while crashed: no replies, no forwarding *)
  mutable purged : int;  (* bindings removed by the periodic purge *)
  mutable standby : t option;  (* on a primary: its hot standby *)
  mutable standby_of : t option;  (* on a standby: the primary it guards *)
  mutable standby_active : bool;  (* the standby is currently serving *)
  mutable takeovers : int;
  mutable last_failover : float option;
      (* seconds from first observing the primary down to taking over *)
}

let node t = t.ha_node
let address t = Net.iface_addr t.home_iface
let bindings t = t.binding_table

let packets_tunneled t = t.tunneled
let packets_reverse_tunneled t = t.reverse_tunneled
let registrations_accepted t = t.accepted
let registrations_denied t = t.denied

let tunnel_ident t =
  let i = t.next_tunnel_ident in
  t.next_tunnel_ident <- (if i >= 0xffff then 1 else i + 1);
  i

(* A passive standby holds a replica binding table but must stay inert on
   the data plane: no interception, no proxy-ARP, no claims, until a
   takeover activates it. *)
let is_passive_standby t = t.standby_of <> None && not t.standby_active

let drop_replica s home =
  s.binding_table <-
    List.filter
      (fun b -> not (Ipv4_addr.equal b.Types.home home))
      s.binding_table

let store_replica s (b : Types.binding) =
  drop_replica s b.Types.home;
  s.binding_table <- b :: s.binding_table

let remove_binding t home =
  t.binding_table <-
    List.filter
      (fun b -> not (Ipv4_addr.equal b.Types.home home))
      t.binding_table;
  Net.unclaim_address t.ha_node home;
  Net.remove_proxy_arp t.ha_node t.home_iface home;
  (* Soft-state replication: mirror live removals to the standby.  Crash
     teardown (up already false) must NOT wipe the replica — it is exactly
     what the standby serves from after taking over. *)
  match t.standby with
  | Some s when t.up -> drop_replica s home
  | Some _ | None -> ()

(* Expiry is lazy: an expired binding stops matching the moment it is next
   consulted, and its proxy-ARP/claim state is torn down then.  (A timer
   per binding would hold every run open until the expiry instant, making
   each run jump hundreds of simulated seconds; the eager sweep is the
   background purge below.) *)
let binding_for t home =
  let now = Net.node_now t.ha_node in
  match
    List.find_opt (fun b -> Ipv4_addr.equal b.Types.home home) t.binding_table
  with
  | Some b when Types.binding_valid ~now b -> Some b
  | Some _ ->
      remove_binding t home;
      None
  | None -> None

let install_binding t (b : Types.binding) =
  t.binding_table <-
    b
    :: List.filter
         (fun o -> not (Ipv4_addr.equal o.Types.home b.Types.home))
         t.binding_table;
  Net.claim_address t.ha_node b.Types.home;
  Net.add_proxy_arp t.ha_node t.home_iface b.Types.home;
  (* Update caches of hosts and routers on the home segment so traffic for
     the mobile host now reaches us (gratuitous proxy ARP, RFC 1027). *)
  Net.gratuitous_arp t.ha_node t.home_iface b.Types.home;
  match t.standby with
  | Some s when t.up -> store_replica s b
  | Some _ | None -> ()

(* Eager counterpart to the lazy expiry above: sweep the whole table once,
   tearing down proxy-ARP/claim state for every expired binding.  Lazy
   expiry only fires when a particular binding is consulted, so a mobile
   host that went quiet would otherwise leave its proxy-ARP entry parked on
   the home segment indefinitely. *)
let purge_expired t =
  let now = Net.node_now t.ha_node in
  let expired =
    List.filter
      (fun b -> not (Types.binding_valid ~now b))
      t.binding_table
  in
  List.iter (fun b -> remove_binding t b.Types.home) expired;
  t.purged <- t.purged + List.length expired;
  List.length expired

let bindings_purged t = t.purged

let enable_purge t ?(interval = 30.0) () =
  Engine.every (Net.node_engine t.ha_node) interval (fun () ->
      if t.up then ignore (purge_expired t))

let handle_registration t udp (dgram : Transport.Udp_service.datagram) =
  if not t.up then ()
  else
  match Registration.decode_request ~key:t.auth_key dgram.payload with
  | Error _ ->
      t.denied <- t.denied + 1;
      let reply =
        {
          Registration.r_home = Ipv4_addr.any;
          r_care_of = Ipv4_addr.any;
          r_lifetime = 0;
          r_sequence = 0;
          r_code = Types.Reg_denied_auth;
        }
      in
      ignore
        (Transport.Udp_service.send udp ~src:dgram.dst ~dst:dgram.src
           ~src_port:Transport.Well_known.mip_registration
           ~dst_port:dgram.src_port
           (Registration.encode_reply ~key:t.auth_key reply))
  | Ok req ->
      (* A retransmitted request (same sequence, same care-of) is
         idempotent: the reply may have been lost and the mobile host is
         retrying.  Only genuinely old sequences — or replays naming a
         different care-of address — are stale.  "Old" is serial-number
         order, so the 16-bit sequence may wrap. *)
      let stale =
        List.exists
          (fun b ->
            Ipv4_addr.equal b.Types.home req.Registration.home
            && (Registration.sequence_older req.Registration.sequence
                  ~than:b.Types.sequence
               || (b.Types.sequence = req.Registration.sequence
                  && not
                       (Ipv4_addr.equal b.Types.care_of
                          req.Registration.care_of))))
          t.binding_table
      in
      let code, granted =
        if stale then (Types.Reg_denied_stale, 0)
        else (Types.Reg_accepted, min req.Registration.lifetime t.max_lifetime)
      in
      (if not stale then
         if req.Registration.lifetime = 0 then begin
           t.accepted <- t.accepted + 1;
           remove_binding t req.Registration.home
         end
         else begin
           t.accepted <- t.accepted + 1;
           install_binding t
             {
               Types.home = req.Registration.home;
               care_of = req.Registration.care_of;
               lifetime = float_of_int granted;
               registered_at = Net.node_now t.ha_node;
               sequence = req.Registration.sequence;
             }
         end
       else t.denied <- t.denied + 1);
      let reply =
        {
          Registration.r_home = req.Registration.home;
          r_care_of = req.Registration.care_of;
          r_lifetime = granted;
          r_sequence = req.Registration.sequence;
          r_code = code;
        }
      in
      ignore
        (Transport.Udp_service.send udp ~src:dgram.dst ~dst:dgram.src
           ~src_port:Transport.Well_known.mip_registration
           ~dst_port:dgram.src_port
           (Registration.encode_reply ~key:t.auth_key reply))

let maybe_notify t ~correspondent (b : Types.binding) =
  if
    t.notify_correspondents
    && not (Ipv4_addr.equal correspondent b.Types.care_of)
  then begin
    let now = Net.node_now t.ha_node in
    let due =
      match Hashtbl.find_opt t.last_notified correspondent with
      | Some last -> now -. last >= t.notify_interval
      | None -> true
    in
    if due then begin
      Hashtbl.replace t.last_notified correspondent now;
      let icmp = Transport.Icmp_service.get t.ha_node in
      let remaining =
        int_of_float (Types.binding_expires_at b -. now)
      in
      Transport.Icmp_service.send_care_of_advert icmp ~src:(address t)
        ~dst:correspondent ~home:b.Types.home ~care_of:b.Types.care_of
        ~lifetime:(max 1 remaining)
    end
  end

(* Intercept: runs on every packet the node would deliver locally.
   Two captures matter:
   - packets addressed to a bound home address: tunnel them (In-IE);
   - tunnel packets addressed to us whose inner source is a bound home
     address: reverse tunneling (Out-IE) — decapsulate and re-send the
     inner packet from the home network. *)
let relay_multicast t ~flow (pkt : Ipv4_packet.t) =
  let group = pkt.Ipv4_packet.dst in
  let subscribers =
    List.filter_map
      (fun (g, home) -> if Ipv4_addr.equal g group then Some home else None)
      t.mcast_subs
  in
  List.iter
    (fun home ->
      match binding_for t home with
      | None -> ()
      | Some b ->
          let outer =
            Encap.wrap t.encap ~src:(address t) ~dst:b.Types.care_of
              ~ident:(tunnel_ident t) pkt
          in
          t.mcast_relayed <- t.mcast_relayed + 1;
          Net.trace_event t.ha_node Trace.k_encapsulate ~id:0 ~flow outer;
          ignore (Net.send t.ha_node ~flow outer))
    subscribers;
  subscribers <> []

(* The service address a packet may legitimately address us by: our own
   interface address, plus — while a takeover is in force — the crashed
   primary's address, which we have claimed so that registration renewals
   and Out-IE reverse tunnels keep working unmodified. *)
let serves_address t dst =
  Ipv4_addr.equal dst (address t)
  ||
  match t.standby_of with
  | Some p when t.standby_active -> Ipv4_addr.equal dst (address p)
  | Some _ | None -> false

let intercept t ~flow (pkt : Ipv4_packet.t) =
  if not t.up then false
  else if is_passive_standby t then false
  else if Ipv4_addr.is_multicast pkt.Ipv4_packet.dst then
    relay_multicast t ~flow pkt
  else
  match binding_for t pkt.Ipv4_packet.dst with
  | Some b ->
      let outer =
        Encap.wrap t.encap ~src:(address t) ~dst:b.Types.care_of
          ~ident:(tunnel_ident t) pkt
      in
      t.tunneled <- t.tunneled + 1;
      Net.trace_event t.ha_node Trace.k_encapsulate ~id:0 ~flow outer;
      ignore (Net.send t.ha_node ~flow outer);
      maybe_notify t ~correspondent:pkt.Ipv4_packet.src b;
      true
  | None -> (
      if not (serves_address t pkt.Ipv4_packet.dst) then false
      else
        match Encap.unwrap pkt with
        | None -> false
        | Some (_, inner) -> (
            match binding_for t inner.Ipv4_packet.src with
            | None ->
                (* Tunnel from an unregistered source: refuse to relay
                   (otherwise we would be an open packet reflector). *)
                false
            | Some _ ->
                t.reverse_tunneled <- t.reverse_tunneled + 1;
                Net.trace_event t.ha_node Trace.k_decapsulate ~id:0 ~flow inner;
                ignore (Net.send t.ha_node ~flow inner);
                true))

let create ha_node ~home_iface ?(auth_key = "secret") ?(encap = Encap.Ipip)
    ?(notify_correspondents = false) ?(notify_interval = 30.0)
    ?(max_lifetime = 600) () =
  let t =
    {
      ha_node;
      home_iface;
      auth_key;
      encap;
      notify_correspondents;
      notify_interval;
      max_lifetime;
      binding_table = [];
      last_notified = Hashtbl.create 8;
      tunneled = 0;
      reverse_tunneled = 0;
      accepted = 0;
      denied = 0;
      next_tunnel_ident = 1;
      mcast_subs = [];
      mcast_relayed = 0;
      up = true;
      purged = 0;
      standby = None;
      standby_of = None;
      standby_active = false;
      takeovers = 0;
      last_failover = None;
    }
  in
  let udp = Transport.Udp_service.get ha_node in
  Transport.Udp_service.listen udp ~port:Transport.Well_known.mip_registration
    (fun svc dgram -> handle_registration t svc dgram);
  Net.set_intercept ha_node (Some (fun ~flow pkt -> intercept t ~flow pkt));
  (* Ensure ICMP service exists so we can answer pings and send adverts. *)
  let (_ : Transport.Icmp_service.t) = Transport.Icmp_service.get ha_node in
  t

let subscribe_multicast t ~group ~home =
  Net.join_group t.ha_node t.home_iface group;
  if not (List.mem (group, home) t.mcast_subs) then
    t.mcast_subs <- (group, home) :: t.mcast_subs

let unsubscribe_multicast t ~group ~home =
  t.mcast_subs <-
    List.filter (fun sub -> sub <> (group, home)) t.mcast_subs;
  if not (List.exists (fun (g, _) -> Ipv4_addr.equal g group) t.mcast_subs)
  then Net.leave_group t.ha_node t.home_iface group

let multicast_packets_relayed t = t.mcast_relayed

(* {1 Redundancy: a hot-standby peer}

   The standby keeps a passive replica of the primary's binding table
   (soft-state replication on every install/remove).  A background poll
   on the standby's engine watches the primary's liveness — the
   deterministic stand-in for a heartbeat protocol.  When the primary has
   been continuously down for [detect_timeout], the standby takes over: it
   claims the primary's service address (so registration renewals and
   Out-IE reverse tunnels addressed to the old agent reach it) and
   re-establishes proxy ARP for every replicated binding. *)

let is_standby_active t = t.standby_active
let takeovers t = t.takeovers
let last_failover t = t.last_failover

let take_over s ~(primary : t) ~detected_at =
  s.standby_active <- true;
  s.takeovers <- s.takeovers + 1;
  s.last_failover <- Some (Net.node_now s.ha_node -. detected_at);
  let svc = address primary in
  Net.claim_address s.ha_node svc;
  Net.add_proxy_arp s.ha_node s.home_iface svc;
  Net.gratuitous_arp s.ha_node s.home_iface svc;
  List.iter
    (fun (b : Types.binding) ->
      Net.claim_address s.ha_node b.Types.home;
      Net.add_proxy_arp s.ha_node s.home_iface b.Types.home;
      Net.gratuitous_arp s.ha_node s.home_iface b.Types.home)
    s.binding_table

(* Failback: release every address the takeover captured {e before} the
   primary re-installs anything, so at no instant do both agents proxy the
   same home address.  The (possibly refreshed) bindings are handed back;
   [install_binding] on the primary re-claims each with a fresh gratuitous
   proxy ARP and re-seeds the replica. *)
let stand_down s ~(primary : t) =
  if s.standby_active then begin
    s.standby_active <- false;
    let svc = address primary in
    Net.unclaim_address s.ha_node svc;
    Net.remove_proxy_arp s.ha_node s.home_iface svc;
    let handed_back = s.binding_table in
    List.iter
      (fun (b : Types.binding) ->
        Net.unclaim_address s.ha_node b.Types.home;
        Net.remove_proxy_arp s.ha_node s.home_iface b.Types.home)
      handed_back;
    List.iter (fun b -> install_binding primary b) handed_back
  end

let pair ~(primary : t) ~(standby : t) ?(detect_interval = 2.0)
    ?(detect_timeout = 5.0) () =
  if primary == standby then
    invalid_arg "Home_agent.pair: an agent cannot stand by for itself";
  if primary.standby <> None || standby.standby_of <> None then
    invalid_arg "Home_agent.pair: already paired";
  if not (detect_interval > 0.0 && detect_timeout >= 0.0) then
    invalid_arg "Home_agent.pair: detection parameters must be positive";
  primary.standby <- Some standby;
  standby.standby_of <- Some primary;
  (* Seed the replica with whatever the primary already holds. *)
  List.iter (fun b -> store_replica standby b) primary.binding_table;
  let down_since = ref None in
  Engine.every (Net.node_engine standby.ha_node) detect_interval (fun () ->
      if standby.up then
        if primary.up then down_since := None
        else
          let now = Net.node_now standby.ha_node in
          match !down_since with
          | None -> down_since := Some now
          | Some t0 ->
              if (not standby.standby_active) && now -. t0 >= detect_timeout
              then take_over standby ~primary ~detected_at:t0)

(* Crash/restart: the binding table is soft state kept in memory — a crash
   loses all of it, along with the proxy-ARP footprint on the home segment
   and the notification rate-limiter.  Recovery relies entirely on mobile
   hosts re-registering (their keepalive retry loop) — or, when a standby
   is paired, on its takeover. *)
let crash t =
  t.up <- false;
  List.iter (fun b -> remove_binding t b.Types.home) t.binding_table;
  Hashtbl.reset t.last_notified

let restart t =
  t.up <- true;
  match t.standby with
  | Some s ->
      stand_down s ~primary:t;
      (* Reclaim the segment's ARP caches for our own service address,
         overwriting the standby's takeover announcement. *)
      Net.gratuitous_arp t.ha_node t.home_iface (address t)
  | None -> ()

let is_up t = t.up
