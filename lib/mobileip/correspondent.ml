open Netsim

type capability = Conventional | Decap_capable | Mobile_aware

type t = {
  ch_node : Net.node;
  cap : capability;
  encap : Encap.mode;
  cache : (Ipv4_addr.t, Types.binding) Hashtbl.t;
  forced : (Ipv4_addr.t, Grid.in_method) Hashtbl.t;
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable adverts : int;
  mutable tunnel_ident : int;
}

let node t = t.ch_node
let packets_encapsulated t = t.encapsulated
let packets_decapsulated t = t.decapsulated
let adverts_received t = t.adverts

let learn_binding t ~home ~care_of ~lifetime =
  match t.cap with
  | Conventional | Decap_capable -> ()
  | Mobile_aware ->
      if lifetime <= 0 then Hashtbl.remove t.cache home
      else
        Hashtbl.replace t.cache home
          {
            Types.home;
            care_of;
            lifetime = float_of_int lifetime;
            registered_at = Net.node_now t.ch_node;
            sequence = 0;
          }

let cached_care_of t ~home =
  match Hashtbl.find_opt t.cache home with
  | Some b when Types.binding_valid ~now:(Net.node_now t.ch_node) b ->
      Some b.Types.care_of
  | Some _ ->
      Hashtbl.remove t.cache home;
      None
  | None -> None

let binding_cache t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.cache []
  |> List.sort (fun a b -> Ipv4_addr.compare a.Types.home b.Types.home)

let force_in_method t ~dst m =
  match m with
  | Some m -> Hashtbl.replace t.forced dst m
  | None -> Hashtbl.remove t.forced dst

let auto_method t ~dst =
  match t.cap with
  | Conventional | Decap_capable -> Grid.In_IE
  | Mobile_aware -> (
      match cached_care_of t ~home:dst with
      | None -> Grid.In_IE
      | Some coa -> (
          match Net.neighbour_on_segment t.ch_node coa with
          | Some _ -> Grid.In_DH
          | None -> Grid.In_DE))

let in_method_for t ~dst =
  match Hashtbl.find_opt t.forced dst with
  | Some m -> m
  | None -> auto_method t ~dst

let fresh_tunnel_ident t =
  let i = t.tunnel_ident in
  t.tunnel_ident <- (if i >= 0xffff then 1 else i + 1);
  i

let own_address t =
  match Net.ifaces t.ch_node with
  | i :: _ -> Net.iface_addr i
  | [] -> Ipv4_addr.any

let record_encap t outer =
  t.encapsulated <- t.encapsulated + 1;
  Net.trace_event t.ch_node Trace.k_encapsulate ~id:0 ~flow:0 outer

(* Route override: the CH-side delivery decision for every outgoing
   packet.  In-IE is "no decision": plain packets to the home address find
   the home agent on their own. *)
let override t (pkt : Ipv4_packet.t) =
  let dst = pkt.Ipv4_packet.dst in
  match in_method_for t ~dst with
  | Grid.In_IE -> None
  | Grid.In_DE -> (
      match cached_care_of t ~home:dst with
      | None ->
          if Hashtbl.mem t.forced dst then
            Some (Net.Discard "in-de-forced-without-binding")
          else None
      | Some coa ->
          let src =
            if Ipv4_addr.equal pkt.Ipv4_packet.src Ipv4_addr.any then
              own_address t
            else pkt.Ipv4_packet.src
          in
          let outer =
            Encap.wrap t.encap ~src ~dst:coa ~ident:(fresh_tunnel_ident t)
              { pkt with Ipv4_packet.src }
          in
          record_encap t outer;
          Some (Net.Resubmit outer))
  | Grid.In_DH -> (
      match cached_care_of t ~home:dst with
      | None ->
          if Hashtbl.mem t.forced dst then
            Some (Net.Discard "in-dh-forced-without-binding")
          else None
      | Some coa -> (
          match Net.neighbour_on_segment t.ch_node coa with
          | None -> Some (Net.Discard "in-dh-peer-not-on-segment")
          | Some (out, mac) ->
              (* The IP packet is exactly what a mobility-unaware host
                 would send; only the link-layer destination differs. *)
              Some (Net.Via { out; next_hop = None; l2_dst = Some mac })))
  | Grid.In_DT -> (
      match cached_care_of t ~home:dst with
      | None ->
          if Hashtbl.mem t.forced dst then
            Some (Net.Discard "in-dt-forced-without-binding")
          else None
      | Some coa -> Some (Net.Resubmit { pkt with Ipv4_packet.dst = coa }))

(* Decapsulation of tunnels addressed to us: the Out-DE receive path. *)
let intercept t ~flow (pkt : Ipv4_packet.t) =
  if not (Net.owns_address t.ch_node pkt.Ipv4_packet.dst) then false
  else
    match Encap.unwrap pkt with
    | None -> false
    | Some (_, inner) ->
        t.decapsulated <- t.decapsulated + 1;
        Net.trace_event t.ch_node Trace.k_decapsulate ~id:0 ~flow inner;
        Net.inject_local t.ch_node ~flow inner;
        true

let create ch_node ~capability ?(encap = Encap.Ipip) () =
  let t =
    {
      ch_node;
      cap = capability;
      encap;
      cache = Hashtbl.create 8;
      forced = Hashtbl.create 8;
      encapsulated = 0;
      decapsulated = 0;
      adverts = 0;
      tunnel_ident = 1;
    }
  in
  (match capability with
  | Conventional -> ()
  | Decap_capable | Mobile_aware ->
      Net.set_intercept ch_node (Some (fun ~flow pkt -> intercept t ~flow pkt)));
  (* The override is installed regardless of capability: for conventional
     hosts it always decides In-IE ("no decision"), and experiments may
     force any method on any capability level. *)
  Net.set_route_override ch_node (Some (fun pkt -> override t pkt));
  (match capability with
  | Conventional | Decap_capable -> ()
  | Mobile_aware ->
      let icmp = Transport.Icmp_service.get ch_node in
      Transport.Icmp_service.on_care_of_advert icmp
        (Some
           (fun ~home ~care_of ~lifetime ->
             t.adverts <- t.adverts + 1;
             learn_binding t ~home ~care_of ~lifetime));
      (* A destination-unreachable about a care-of address we tunnel to
         means the cached binding routes into a black hole (the host
         moved on, or a filter refuses the tunnel): drop those entries so
         traffic falls back to In-IE via the home agent. *)
      Transport.Icmp_service.on_unreachable icmp
        (Some
           (fun ~code ~src:_ ~original ->
             match (code, original) with
             | ( ( Icmp_wire.Admin_prohibited | Icmp_wire.Host_unreachable
                 | Icmp_wire.Net_unreachable ),
                 Some (_, dst) ) ->
                 let stale =
                   Hashtbl.fold
                     (fun home b acc ->
                       if Ipv4_addr.equal b.Types.care_of dst then home :: acc
                       else acc)
                     t.cache []
                 in
                 List.iter (Hashtbl.remove t.cache) stale
             | _ -> ())));
  let (_ : Transport.Icmp_service.t) = Transport.Icmp_service.get ch_node in
  t
