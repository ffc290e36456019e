open Netsim

type location =
  | At_home
  | Away of { care_of : Ipv4_addr.t; gateway : Ipv4_addr.t }

type heuristic = Ipv4_packet.t -> bool

type t = {
  mh_node : Net.node;
  iface : Net.iface;
  home : Ipv4_addr.t;
  home_prefix : Ipv4_addr.Prefix.t;
  home_agent : Ipv4_addr.t;
  auth_key : string;
  encap : Encap.mode;
  lifetime : int;
  mutable loc : location;
  mutable sequence : int;
  mutable is_registered : bool;
  mutable default : Grid.out_method;
  pinned : (Ipv4_addr.t, Grid.out_method) Hashtbl.t;
  mutable sel : Selector.t option;
  mutable privacy_mode : bool;
  mutable heuristic_list : heuristic list;
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable reg_attempts : int;
  mutable reg_failures : int;
      (* registrations abandoned after the retry budget *)
  mutable last_reg_failure : float option;
      (* sim time the latest abandonment happened (oracle raw material) *)
  mutable tunnel_ident : int;
  mutable pending_reg : int option;  (* sequence awaiting a reply *)
  retry_base : float;  (* first retransmission delay, seconds *)
  retry_cap : float;  (* backoff ceiling *)
  retry_limit : int;  (* transmissions per registration before giving up *)
  mutable retry_lcg : int;  (* seeded jitter state *)
  mutable advertised : Ipv4_addr.t list;
      (* correspondents sent a binding update; invalidated on failure *)
  mutable fa_mode : bool;
      (* attached via a foreign agent: the MH keeps its home address and
         the FA delivers/forwards; the optimization machinery is off
         (§2: foreign agents "restrict the freedom of the mobile host") *)
  home_gateway : (Ipv4_addr.t * string) option;
      (* default route captured at creation, restored on return home *)
  mutable keepalive : (float * int) option;
      (* (margin seconds before expiry, renewals remaining) *)
  mutable keepalive_generation : int;
      (* bumps on every movement so stale renewal timers self-cancel *)
  mutable auto_attach : bool;
  mutable attaching : bool;  (* a DHCP attach is in flight *)
  mutable auto_attach_count : int;
  mutable degrade_to : Grid.out_method option;
      (* policy: when a registration finally fails away from home, fall
         back to this direct method instead of black-holing on Out-IE *)
  mutable degraded : bool;  (* the fallback is currently in force *)
  mutable icmp_consumed : int;
      (* destination-unreachable errors acted on as negative feedback *)
}

let node t = t.mh_node
let home_address t = t.home
let home_agent_address t = t.home_agent

let care_of_address t =
  match t.loc with At_home -> None | Away { care_of; _ } -> Some care_of

let location t = t.loc
let at_home t = t.loc = At_home
let via_foreign_agent t = t.fa_mode
let registered t = t.is_registered
let set_default_method t m = t.default <- m
let default_method t = t.default

let pin_method t ~dst m =
  match m with
  | Some m -> Hashtbl.replace t.pinned dst m
  | None -> Hashtbl.remove t.pinned dst

let set_degradation t m =
  (match m with
  | Some Grid.Out_IE | Some Grid.Out_DE ->
      invalid_arg
        "Mobile_host.set_degradation: only the direct methods Out-DH/Out-DT \
         make sense without a home-agent binding"
  | Some Grid.Out_DH | Some Grid.Out_DT | None -> ());
  t.degrade_to <- m;
  if m = None then t.degraded <- false

let degradation t = t.degrade_to
let degraded t = t.degraded
let icmp_errors_consumed t = t.icmp_consumed
let set_privacy t b = t.privacy_mode <- b
let privacy t = t.privacy_mode
let set_heuristics t hs = t.heuristic_list <- hs
let heuristics t = t.heuristic_list
let selector t = t.sel
let packets_encapsulated t = t.encapsulated
let packets_decapsulated t = t.decapsulated
let registration_attempts t = t.reg_attempts
let registration_failures t = t.reg_failures
let last_registration_failure t = t.last_reg_failure
let advertised_correspondents t = List.rev t.advertised

let http_dns_heuristic (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Ipv4_packet.Tcp tw -> tw.Tcp_wire.dst_port = Transport.Well_known.http
  | Ipv4_packet.Udp u -> u.Udp_wire.dst_port = Transport.Well_known.dns
  | _ -> false

(* "A mobile host corresponding with a host that is physically connected
   to the same Ethernet segment should not require every packet to travel
   via its home agent" (§1): destinations on a local link go direct. *)
let on_link t dst =
  (match t.loc with
  | Away _ -> Ipv4_addr.Prefix.mem dst (Net.iface_prefix t.iface)
  | At_home -> false)
  || Net.neighbour_on_segment t.mh_node dst <> None

let out_method_for t ~dst =
  if t.privacy_mode then Grid.Out_IE
  else
    match Hashtbl.find_opt t.pinned dst with
    | Some m -> m
    | None -> (
        if on_link t dst then Grid.Out_DH
        else
          match t.degrade_to with
          | Some m when t.degraded && not t.is_registered ->
              (* Registration failed for good: no home-agent binding backs
                 Out-IE, so run the configured direct fallback until a
                 registration succeeds again. *)
              m
          | Some _ | None -> (
              match t.sel with
              | Some sel -> Selector.method_for sel dst
              | None -> t.default))

let choose_source t ?tcp_port () =
  match t.loc with
  | At_home -> t.home
  | Away { care_of; _ } -> (
      if t.privacy_mode then t.home
      else
        match tcp_port with
        | Some p when p = Transport.Well_known.http -> care_of
        | Some _ | None -> t.home)

let fresh_tunnel_ident t =
  let i = t.tunnel_ident in
  t.tunnel_ident <- (if i >= 0xffff then 1 else i + 1);
  i

let record_encap t outer =
  t.encapsulated <- t.encapsulated + 1;
  Net.trace_event t.mh_node Trace.k_encapsulate ~id:0 ~flow:0 outer

(* The route-override hook: the mobility policy consulted before the
   routing table for every locally-originated packet. *)
let override t (pkt : Ipv4_packet.t) =
  if
    (* Broadcasts and multicasts are link-scoped (or handled by the §6.4
       membership machinery): Mobile IP never applies.  In particular the
       DHCP exchange on a new segment must go out plain while the location
       state still describes the previous attachment. *)
    Ipv4_addr.equal pkt.Ipv4_packet.dst Ipv4_addr.broadcast
    || Ipv4_addr.is_multicast pkt.Ipv4_packet.dst
  then None
  else
  match t.loc with
  | At_home -> None (* functions like a normal non-mobile Internet host *)
  | Away _ when t.fa_mode ->
      (* Plain Out-DH through the foreign agent; no per-packet choices. *)
      None
  | Away { care_of; _ } ->
      let src = pkt.Ipv4_packet.src in
      if Ipv4_addr.equal src care_of then
        (* Bound to the physical interface: Out-DT, no Mobile IP. *)
        None
      else if
        (not (Ipv4_addr.equal src t.home))
        && not (Ipv4_addr.equal src Ipv4_addr.any)
      then None
      else begin
        (* Unbound packets may take the Out-DT shortcut per heuristics. *)
        let unbound = Ipv4_addr.equal src Ipv4_addr.any in
        if
          unbound && (not t.privacy_mode)
          && List.exists (fun h -> h pkt) t.heuristic_list
        then Some (Net.Resubmit { pkt with Ipv4_packet.src = care_of })
        else begin
          let pkt = { pkt with Ipv4_packet.src = t.home } in
          match out_method_for t ~dst:pkt.Ipv4_packet.dst with
          | Grid.Out_DH ->
              if unbound then Some (Net.Resubmit pkt) else None
          | Grid.Out_DT ->
              (* An application decision; as a routing method it means
                 "rewrite to the care-of address", only safe for unbound
                 traffic.  For bound traffic fall back to plain sending. *)
              if unbound then
                Some (Net.Resubmit { pkt with Ipv4_packet.src = care_of })
              else None
          | Grid.Out_IE ->
              let outer =
                Encap.wrap t.encap ~src:care_of ~dst:t.home_agent
                  ~ident:(fresh_tunnel_ident t) pkt
              in
              record_encap t outer;
              Some (Net.Resubmit outer)
          | Grid.Out_DE ->
              let outer =
                Encap.wrap t.encap ~src:care_of ~dst:pkt.Ipv4_packet.dst
                  ~ident:(fresh_tunnel_ident t) pkt
              in
              record_encap t outer;
              Some (Net.Resubmit outer)
        end
      end

(* Arrival side: tunnel packets addressed to the care-of address carry our
   home-addressed traffic (In-IE from the home agent, In-DE from a
   mobile-aware correspondent). *)
let intercept t ~flow (pkt : Ipv4_packet.t) =
  match t.loc with
  | At_home -> false
  | Away { care_of; _ } -> (
      if not (Ipv4_addr.equal pkt.Ipv4_packet.dst care_of) then false
      else
        match Encap.unwrap pkt with
        | None -> false
        | Some (_, inner) ->
            t.decapsulated <- t.decapsulated + 1;
            Net.trace_event t.mh_node Trace.k_decapsulate ~id:0 ~flow inner;
            Net.inject_local t.mh_node ~flow inner;
            true)

(* Bounded exponential backoff with seeded jitter: retransmission [n]
   waits min(cap, base * 2^n), scaled by a deterministic jitter factor in
   [1, 1.25) so co-moving hosts do not retransmit in lockstep.  Same LCG
   family as the link loss model, so runs replay exactly. *)
let retry_jitter t =
  t.retry_lcg <- ((t.retry_lcg * 1103515245) + 12345) land 0x3fffffff;
  float_of_int t.retry_lcg /. 1073741824.0

let retry_delay t n =
  Float.min t.retry_cap (t.retry_base *. (2.0 ** float_of_int n))
  *. (1.0 +. (0.25 *. retry_jitter t))

(* Correspondents that received a binding update cached our care-of
   address.  When a registration ultimately fails that location is no
   longer backed by a home-agent binding, so tell them to stop using it: a
   lifetime-zero care-of advert is the cache invalidation
   {!Correspondent.learn_binding} understands. *)
let invalidate_correspondents t =
  match t.loc with
  | At_home -> ()
  | Away { care_of; _ } ->
      let icmp = Transport.Icmp_service.get t.mh_node in
      List.iter
        (fun correspondent ->
          Transport.Icmp_service.send_care_of_advert icmp ~src:care_of
            ~dst:correspondent ~home:t.home ~care_of ~lifetime:0)
        t.advertised

(* Registration: "our Mobile IP support software itself communicates using
   the temporary address when registering with the home agent" (§6.4).
   When a foreign agent is in use the request instead travels to the FA
   (source: home address — the MH has no address of its own) which relays
   it to the home agent named inside the message. *)
let send_registration t ~src ~reg_dst ~care_of ~lifetime ~sequence =
  t.reg_attempts <- t.reg_attempts + 1;
  let req =
    {
      Registration.home = t.home;
      home_agent = t.home_agent;
      care_of;
      lifetime;
      sequence;
    }
  in
  let udp = Transport.Udp_service.get t.mh_node in
  ignore
    (Transport.Udp_service.send udp ~src ~dst:reg_dst
       ~src_port:Transport.Well_known.mip_registration
       ~dst_port:Transport.Well_known.mip_registration
       (Registration.encode_request ~key:t.auth_key req))

let rec register ?src ?reg_dst t ~care_of ~lifetime ?(on_result = fun _ -> ())
    () =
  t.sequence <- Registration.next_sequence t.sequence;
  let sequence = t.sequence in
  t.pending_reg <- Some sequence;
  let udp = Transport.Udp_service.get t.mh_node in
  Transport.Udp_service.listen udp
    ~port:Transport.Well_known.mip_registration (fun svc dgram ->
      match
        Registration.decode_reply ~key:t.auth_key
          dgram.Transport.Udp_service.payload
      with
      | Error _ -> ()
      | Ok reply ->
          if
            reply.Registration.r_sequence = sequence
            && t.pending_reg = Some sequence
          then begin
            t.pending_reg <- None;
            Transport.Udp_service.unlisten svc
              ~port:Transport.Well_known.mip_registration;
            let ok = reply.Registration.r_code = Types.Reg_accepted in
            t.is_registered <- (ok && lifetime > 0);
            if ok then t.degraded <- false;
            if ok && lifetime > 0 then schedule_renewal t;
            on_result ok
          end);
  (* Retransmit with bounded exponential backoff; registration runs over
     UDP and the access link may be lossy or the agent briefly down. *)
  let src = Option.value src ~default:care_of in
  let reg_dst = Option.value reg_dst ~default:t.home_agent in
  let eng = Net.node_engine t.mh_node in
  let rec attempt n =
    if t.pending_reg = Some sequence then
      if n >= t.retry_limit then begin
        (* Give up: we have no confirmed binding.  Stop claiming to be
           registered and withdraw any binding updates we advertised. *)
        t.pending_reg <- None;
        Transport.Udp_service.unlisten udp
          ~port:Transport.Well_known.mip_registration;
        t.is_registered <- false;
        t.reg_failures <- t.reg_failures + 1;
        t.last_reg_failure <- Some (Net.node_now t.mh_node);
        invalidate_correspondents t;
        (* Graceful degradation (§7.1.2): rather than black-holing on a
           tunnel no agent terminates, switch to the configured direct
           method until a later registration succeeds. *)
        (match (t.loc, t.degrade_to) with
        | Away _, Some _ -> t.degraded <- true
        | (At_home | Away _), _ -> ());
        on_result false
      end
      else begin
        send_registration t ~src ~reg_dst ~care_of ~lifetime ~sequence;
        Engine.after eng (retry_delay t n) (fun () -> attempt (n + 1))
      end
  in
  attempt 0

(* Registration keepalive: renew the binding [margin] seconds before it
   would expire, as many times as the renewal budget allows. *)
and schedule_renewal t =
  match (t.keepalive, t.loc) with
  | Some (margin, remaining), Away { care_of; _ }
    when remaining > 0 && t.lifetime > 0 ->
      let generation = t.keepalive_generation in
      let delay = Float.max 1.0 (float_of_int t.lifetime -. margin) in
      Engine.after (Net.node_engine t.mh_node) delay (fun () ->
          if t.keepalive_generation = generation && t.is_registered then begin
            t.keepalive <- Some (margin, remaining - 1);
            renew t ~generation ~care_of
          end)
  | _ -> ()

and renew t ~generation ~care_of =
  let src, reg_dst =
    if t.fa_mode then (Some t.home, Some care_of) else (None, None)
  in
  register ?src ?reg_dst t ~care_of ~lifetime:t.lifetime
    ~on_result:(fun ok -> if not ok then renewal_failed t ~generation ~care_of)
    ()

(* A renewal or a move's registration that fails outright (home agent
   crashed, path black-holed) must not end the keepalive chain: spend the
   remaining renewal budget retrying after a backoff delay, so the binding
   comes back when the agent or the path does. *)
and renewal_failed t ~generation ~care_of =
  match t.keepalive with
  | Some (margin, remaining)
    when remaining > 0 && t.keepalive_generation = generation ->
      t.keepalive <- Some (margin, remaining - 1);
      Engine.after (Net.node_engine t.mh_node) (retry_delay t 0) (fun () ->
          if t.keepalive_generation = generation then
            renew t ~generation ~care_of)
  | _ -> ()

(* The result handler of a move's registration: a failure goes to the
   renewal backoff too.  Take it after the move bumped the keepalive
   generation, so a later move cancels these retries. *)
let move_registered t ~care_of on_registered =
  let generation = t.keepalive_generation in
  fun ok ->
    if not ok then renewal_failed t ~generation ~care_of;
    on_registered ok

let enable_keepalive t ?(margin = 30.0) ?(max_renewals = 10) () =
  t.keepalive <- Some (margin, max_renewals);
  if t.is_registered then schedule_renewal t

let disable_keepalive t =
  t.keepalive <- None;
  t.keepalive_generation <- t.keepalive_generation + 1

let configure_away t ~care_of ~prefix ~gateway ?(on_registered = fun _ -> ())
    () =
  t.keepalive_generation <- t.keepalive_generation + 1;
  Net.set_iface_addr t.iface ~addr:care_of ~prefix;
  let table = Net.routing t.mh_node in
  (* Replace any default route left over from the previous attachment. *)
  Routing.remove table ~prefix:Ipv4_addr.Prefix.global ();
  Routing.add_default table ~gateway ~iface:(Net.iface_name t.iface);
  t.loc <- Away { care_of; gateway };
  t.is_registered <- false;
  (* While away we still own our home address: packets delivered to it
     (In-DH, decapsulated tunnels) must be accepted. *)
  Net.claim_address t.mh_node t.home;
  (match t.sel with Some sel -> Selector.reset_all sel | None -> ());
  register t ~care_of ~lifetime:t.lifetime
    ~on_result:(move_registered t ~care_of on_registered)
    ()

let move_to_static t segment ~addr ~prefix ~gateway ?on_registered () =
  Net.reattach t.iface segment;
  Net.clear_arp t.mh_node;
  t.fa_mode <- false;
  configure_away t ~care_of:addr ~prefix ~gateway ?on_registered ()

let move_to_foreign_agent t segment ~fa_addr ?(on_registered = fun _ -> ())
    () =
  Net.reattach t.iface segment;
  Net.clear_arp t.mh_node;
  t.fa_mode <- true;
  t.keepalive_generation <- t.keepalive_generation + 1;
  (* The MH keeps its home address; the FA is both its registration relay
     and its first-hop router. *)
  Net.set_iface_addr t.iface ~addr:t.home
    ~prefix:(Ipv4_addr.Prefix.make t.home 32);
  let table = Net.routing t.mh_node in
  Routing.remove table ~prefix:Ipv4_addr.Prefix.global ();
  Routing.add table ~prefix:(Ipv4_addr.Prefix.make fa_addr 32)
    ~iface:(Net.iface_name t.iface) ();
  Routing.add_default table ~gateway:fa_addr ~iface:(Net.iface_name t.iface);
  t.loc <- Away { care_of = fa_addr; gateway = fa_addr };
  t.is_registered <- false;
  register t ~src:t.home ~reg_dst:fa_addr ~care_of:fa_addr
    ~lifetime:t.lifetime
    ~on_result:(move_registered t ~care_of:fa_addr on_registered)
    ()

(* Acquire an address and register on whatever segment the interface is
   currently attached to. *)
let attach_here_via_dhcp t ?(on_registered = fun _ -> ()) () =
  t.fa_mode <- false;
  t.attaching <- true;
  (* Interface has no valid address yet on this segment. *)
  Net.set_iface_addr t.iface ~addr:Ipv4_addr.any
    ~prefix:(Ipv4_addr.Prefix.make Ipv4_addr.any 32);
  Transport.Dhcp.Client.request t.mh_node ~via:t.iface (fun offer ->
      configure_away t ~care_of:offer.Transport.Dhcp.Client.addr
        ~prefix:offer.Transport.Dhcp.Client.prefix
        ~gateway:offer.Transport.Dhcp.Client.gateway
        ~on_registered:(fun ok ->
          t.attaching <- false;
          on_registered ok)
        ())

let move_to_dhcp t segment ?on_registered () =
  Net.reattach t.iface segment;
  Net.clear_arp t.mh_node;
  attach_here_via_dhcp t ?on_registered ()

(* Settle on the home segment the interface is already attached to:
   restore the home address and routes, reclaim traffic from the home
   agent, deregister. *)
let settle_at_home t ?(on_deregistered = fun _ -> ()) () =
  t.fa_mode <- false;
  t.keepalive_generation <- t.keepalive_generation + 1;
  Net.set_iface_addr t.iface ~addr:t.home ~prefix:t.home_prefix;
  let table = Net.routing t.mh_node in
  Routing.remove table ~prefix:Ipv4_addr.Prefix.global ();
  (match t.home_gateway with
  | Some (gateway, iface) -> Routing.add_default table ~gateway ~iface
  | None -> ());
  t.loc <- At_home;
  Net.unclaim_address t.mh_node t.home;
  (* Reclaim our traffic from the home agent's proxy ARP. *)
  Net.gratuitous_arp t.mh_node t.iface t.home;
  register t ~care_of:t.home ~lifetime:0 ~on_result:on_deregistered ()

let return_home t segment ?on_deregistered () =
  Net.reattach t.iface segment;
  Net.clear_arp t.mh_node;
  settle_at_home t ?on_deregistered ()

let reregister t ?(on_registered = fun _ -> ()) () =
  match t.loc with
  | At_home -> on_registered true
  | Away { care_of; _ } ->
      register t ~care_of ~lifetime:t.lifetime ~on_result:on_registered ()

(* Eager movement detection: an agent advertisement whose source lies
   outside our current network means the link changed under us. *)
let handle_possible_movement t ~fa_addr =
  if t.auto_attach && not t.attaching then begin
    let current_prefix = Net.iface_prefix t.iface in
    let same_network = Ipv4_addr.Prefix.mem fa_addr current_prefix in
    if not same_network then begin
      t.auto_attach_count <- t.auto_attach_count + 1;
      Net.clear_arp t.mh_node;
      if Ipv4_addr.Prefix.mem fa_addr t.home_prefix then
        (* We are hearing our own home network: settle and deregister. *)
        settle_at_home t ()
      else attach_here_via_dhcp t ()
    end
  end

let enable_auto_attach t =
  t.auto_attach <- true;
  let udp = Transport.Udp_service.get t.mh_node in
  Transport.Udp_service.listen udp ~port:Foreign_agent.advert_port
    (fun _svc dgram ->
      match
        Foreign_agent.advert_agent_address dgram.Transport.Udp_service.payload
      with
      | Some fa_addr -> handle_possible_movement t ~fa_addr
      | None -> ())

let disable_auto_attach t =
  t.auto_attach <- false;
  let udp = Transport.Udp_service.get t.mh_node in
  Transport.Udp_service.unlisten udp ~port:Foreign_agent.advert_port

let auto_attaches t = t.auto_attach_count

let send_binding_update t ~correspondent ?(lifetime = 300) () =
  match t.loc with
  | At_home -> false
  | Away { care_of; _ } ->
      if not (List.exists (Ipv4_addr.equal correspondent) t.advertised) then
        t.advertised <- correspondent :: t.advertised;
      let icmp = Transport.Icmp_service.get t.mh_node in
      Transport.Icmp_service.send_care_of_advert icmp ~src:care_of
        ~dst:correspondent ~home:t.home ~care_of ~lifetime;
      true

let wire_tcp_feedback t =
  let tcp = Transport.Tcp.get t.mh_node in
  Transport.Tcp.set_feedback tcp
    (Some
       (fun ev ->
         match t.sel with
         | None -> ()
         | Some sel -> (
             match ev with
             | Transport.Tcp.Segment_sent { peer; retransmission = true } ->
                 Selector.report sel ~dst:peer Selector.Retransmission_detected
             | Transport.Tcp.Segment_received { peer; retransmission = true }
               ->
                 Selector.report sel ~dst:peer Selector.Retransmission_detected
             | Transport.Tcp.Segment_received { peer; retransmission = false }
               ->
                 Selector.report sel ~dst:peer Selector.Original_received
             | Transport.Tcp.Segment_sent { retransmission = false; _ } -> ())))

let set_selector t sel =
  t.sel <- sel;
  match sel with Some _ -> wire_tcp_feedback t | None -> ()

let create mh_node ~iface ~home ~home_prefix ~home_agent
    ?(auth_key = "secret") ?(encap = Encap.Ipip) ?(lifetime = 300)
    ?(retry_base = 1.0) ?(retry_cap = 8.0) ?(retry_limit = 6)
    ?(retry_seed = 0x2b5d) () =
  if retry_base <= 0.0 || retry_cap < retry_base then
    invalid_arg "Mobile_host.create: need 0 < retry_base <= retry_cap";
  if retry_limit < 1 then
    invalid_arg "Mobile_host.create: retry_limit must be >= 1";
  (* Remember the at-home default route so returning home can restore it. *)
  let home_gateway =
    List.find_map
      (fun r ->
        if Ipv4_addr.Prefix.equal r.Routing.prefix Ipv4_addr.Prefix.global
        then Option.map (fun g -> (g, r.Routing.iface)) r.Routing.gateway
        else None)
      (Routing.routes (Net.routing mh_node))
  in
  let t =
    {
      mh_node;
      iface;
      home;
      home_prefix;
      home_agent;
      auth_key;
      encap;
      lifetime;
      loc = At_home;
      sequence = 0;
      is_registered = false;
      default = Grid.Out_IE;
      pinned = Hashtbl.create 8;
      sel = None;
      privacy_mode = false;
      heuristic_list = [];
      encapsulated = 0;
      decapsulated = 0;
      reg_attempts = 0;
      reg_failures = 0;
      last_reg_failure = None;
      tunnel_ident = 1;
      pending_reg = None;
      retry_base;
      retry_cap;
      retry_limit;
      retry_lcg = retry_seed land 0x3fffffff;
      advertised = [];
      fa_mode = false;
      home_gateway;
      keepalive = None;
      keepalive_generation = 0;
      auto_attach = false;
      attaching = false;
      auto_attach_count = 0;
      degrade_to = None;
      degraded = false;
      icmp_consumed = 0;
    }
  in
  Net.set_route_override mh_node (Some (fun pkt -> override t pkt));
  Net.set_intercept mh_node (Some (fun ~flow pkt -> intercept t ~flow pkt));
  let icmp = Transport.Icmp_service.get mh_node in
  (* Destination-unreachable errors are fast negative feedback for the
     selector: the quoted context names the destination whose current
     delivery method a router refused, so that method is abandoned
     immediately instead of after several retransmission timeouts. *)
  Transport.Icmp_service.on_unreachable icmp
    (Some
       (fun ~code ~src:_ ~original ->
         match code with
         | Icmp_wire.Admin_prohibited | Icmp_wire.Host_unreachable
         | Icmp_wire.Net_unreachable -> (
             t.icmp_consumed <- t.icmp_consumed + 1;
             match (t.sel, original) with
             | Some sel, Some (_, dst)
               when (not (Ipv4_addr.equal dst t.home_agent))
                    && not (Ipv4_addr.equal dst t.home) ->
                 Selector.report sel ~dst Selector.Icmp_error
             | _ -> ())
         | Icmp_wire.Protocol_unreachable | Icmp_wire.Port_unreachable
         | Icmp_wire.Fragmentation_needed ->
             (* end-to-end / MTU conditions: not a method failure *)
             ()));
  t
