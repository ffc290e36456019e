open Netsim

let advert_port = 435

type t = {
  fa_node : Net.node;
  iface : Net.iface;
  mutable visitor_list : (Ipv4_addr.t * Mac_addr.t) list;
  mutable pending : (Ipv4_addr.t * Ipv4_addr.t) list;
      (* home address, requester source — awaiting a home-agent reply *)
  mutable delivered : int;
  mutable relayed : int;
  mutable up : bool;  (* false while crashed *)
}

let address t = Net.iface_addr t.iface
let visitors t = t.visitor_list
let packets_delivered t = t.delivered
let registrations_relayed t = t.relayed

let advert_payload fa_addr =
  let buf = Bytes.make 5 '\000' in
  Bytes.set buf 0 (Char.chr 9);
  let a, b, c, d = Ipv4_addr.to_octets fa_addr in
  Bytes.set buf 1 (Char.chr a);
  Bytes.set buf 2 (Char.chr b);
  Bytes.set buf 3 (Char.chr c);
  Bytes.set buf 4 (Char.chr d);
  buf

let advert_addr payload =
  if Bytes.length payload = 5 && Char.code (Bytes.get payload 0) = 9 then
    Some
      (Ipv4_addr.of_octets
         (Char.code (Bytes.get payload 1))
         (Char.code (Bytes.get payload 2))
         (Char.code (Bytes.get payload 3))
         (Char.code (Bytes.get payload 4)))
  else None

let visitor_mac t home =
  List.assoc_opt home t.visitor_list

let mh_mac t home = Net.neighbour_on_segment t.fa_node home

(* Relay registration traffic.  Requests come from visitors on the
   segment; replies come back from home agents. *)
let handle_registration t udp (dgram : Transport.Udp_service.datagram) =
  if not t.up then ()
  else
  let payload = dgram.Transport.Udp_service.payload in
  if Registration.is_request payload then begin
    match
      ( Registration.peek_request_home payload,
        Registration.peek_request_home_agent payload )
    with
    | Some home, Some home_agent ->
        t.pending <- (home, dgram.Transport.Udp_service.src) :: t.pending;
        t.relayed <- t.relayed + 1;
        ignore
          (Transport.Udp_service.send udp ~src:(address t) ~dst:home_agent
             ~src_port:Transport.Well_known.mip_registration
             ~dst_port:Transport.Well_known.mip_registration payload)
    | _ -> ()
  end
  else if Registration.is_reply payload then begin
    match Registration.peek_reply_home payload with
    | None -> ()
    | Some home -> (
        if List.mem_assoc home t.pending then begin
          t.pending <- List.remove_assoc home t.pending;
          (* Record the visitor (its MAC found on our segment) and relay
             the reply in a single link-layer hop. *)
          match mh_mac t home with
          | None -> ()
          | Some (_, mac) ->
              t.visitor_list <-
                (home, mac) :: List.remove_assoc home t.visitor_list;
              ignore
                (Transport.Udp_service.send udp ~src:(address t) ~dst:home
                   ~via:t.iface ~l2_dst:mac
                   ~src_port:Transport.Well_known.mip_registration
                   ~dst_port:Transport.Well_known.mip_registration payload)
        end)
  end

(* Decapsulate tunnels from the home agent and deliver the final hop. *)
let intercept t ~flow (pkt : Ipv4_packet.t) =
  if not t.up then false
  else if not (Ipv4_addr.equal pkt.Ipv4_packet.dst (address t)) then false
  else
    match Encap.unwrap pkt with
    | None -> false
    | Some (_, inner) -> (
        match visitor_mac t inner.Ipv4_packet.dst with
        | None -> false
        | Some mac ->
            t.delivered <- t.delivered + 1;
            Net.trace_event t.fa_node Trace.k_decapsulate ~id:0 ~flow inner;
            ignore
              (Net.send t.fa_node ~flow ~via:t.iface ~l2_dst:mac inner);
            true)

let create fa_node ~iface ?(advert_interval = 5.0) ?(advertise = true)
    ?(advert_count = 12) () =
  let t =
    { fa_node; iface; visitor_list = []; pending = []; delivered = 0;
      relayed = 0; up = true }
  in
  let udp = Transport.Udp_service.get fa_node in
  Transport.Udp_service.listen udp ~port:Transport.Well_known.mip_registration
    (fun svc dgram -> handle_registration t svc dgram);
  Net.set_intercept fa_node (Some (fun ~flow pkt -> intercept t ~flow pkt));
  if advertise then begin
    let eng = Net.node_engine fa_node in
    (* Beacons are traffic the trace records, so [advert_count] fixes
       how many a run sends.  The default 12 (one minute) stays well
       inside a registration lifetime: a run the beacons hold open does
       not reach an expiry. *)
    let rec beacon n =
      if t.up then
        ignore
          (Transport.Udp_service.send udp ~src:(address t)
             ~dst:Ipv4_addr.broadcast ~via:t.iface ~src_port:advert_port
             ~dst_port:advert_port
             (advert_payload (address t)));
      if n < advert_count then
        Engine.after eng advert_interval (fun () -> beacon (n + 1))
    in
    beacon 0
  end;
  t

(* Crash/restart: the visitor list and the pending-relay table are soft
   state; while down the FA neither relays registrations, delivers
   tunnels, nor beacons.  Visitors must re-register after a restart. *)
let crash t =
  t.up <- false;
  t.visitor_list <- [];
  t.pending <- []

let restart t = t.up <- true
let is_up t = t.up

let advert_agent_address = advert_addr

let on_advert node callback =
  let udp = Transport.Udp_service.get node in
  Transport.Udp_service.listen udp ~port:advert_port (fun svc dgram ->
      match advert_addr dgram.Transport.Udp_service.payload with
      | Some fa_addr ->
          Transport.Udp_service.unlisten svc ~port:advert_port;
          callback ~fa_addr
      | None -> ())
