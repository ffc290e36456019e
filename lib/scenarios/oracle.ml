open Netsim

type t = {
  world : Topo.t;
  inv : Invariant.t;
  mutable recorder : Trace.ring option;
  mutable tail : Trace.record list;
      (* snapshot of the recorder at the first violation: the last-K
         events leading up to the failure, frozen before the run moves
         on and the ring wraps past them *)
}

let create world =
  {
    world;
    inv = Invariant.create world.Topo.net;
    recorder = None;
    tail = [];
  }

let inv t = t.inv

let attach_recorder t =
  if t.recorder = None then begin
    let r = Trace.make_ring ~capacity:512 () in
    t.recorder <- Some r;
    Trace.attach_ring (Net.trace t.world.Topo.net) r;
    Invariant.set_on_violation t.inv
      (Some (fun _ -> if t.tail = [] then t.tail <- Trace.ring_tail r))
  end

let recorder_tail t = t.tail

let detach_recorder t =
  Option.iter
    (fun r -> Trace.detach_ring (Net.trace t.world.Topo.net) r)
    t.recorder;
  Invariant.set_on_violation t.inv None

let add_binding_lifetime ?(grace = 45.0) t =
  let w = t.world in
  Invariant.add_check t.inv ~name:"binding-lifetime" (fun () ->
      let now = Net.now w.Topo.net in
      let stale =
        List.find_opt
          (fun b -> now > Mobileip.Types.binding_expires_at b +. grace)
          (Mobileip.Home_agent.bindings w.Topo.ha)
      in
      match stale with
      | None -> None
      | Some b ->
          Some
            (Printf.sprintf
               "binding for %s expired at %.3f still in the table at %.3f"
               (Ipv4_addr.to_string b.Mobileip.Types.home)
               (Mobileip.Types.binding_expires_at b)
               now))

let add_withdrawal ?(grace = 5.0) t =
  let w = t.world in
  Invariant.add_check t.inv ~name:"withdrawal" (fun () ->
      let mh = w.Topo.mh in
      match Mobileip.Mobile_host.last_registration_failure mh with
      | None -> None
      | Some _ when Mobileip.Mobile_host.registered mh -> None
      | Some tf ->
          let now = Net.now w.Topo.net in
          if now <= tf +. grace then None
          else
            let home = w.Topo.mh_home_addr in
            let stale =
              List.find_opt
                (fun b ->
                  Ipv4_addr.equal b.Mobileip.Types.home home
                  && b.Mobileip.Types.registered_at < tf
                  && Mobileip.Types.binding_valid ~now b)
                (Mobileip.Correspondent.binding_cache w.Topo.ch)
            in
            Option.map
              (fun (b : Mobileip.Types.binding) ->
                Printf.sprintf
                  "registration failed at %.3f but correspondent still \
                   caches care-of %s (learned at %.3f) at %.3f"
                  tf
                  (Ipv4_addr.to_string b.Mobileip.Types.care_of)
                  b.Mobileip.Types.registered_at now)
              stale)

let add_proxy_arp ?(grace = 45.0) t =
  let w = t.world in
  let first_seen : (Ipv4_addr.t, float) Hashtbl.t = Hashtbl.create 4 in
  Invariant.add_check t.inv ~name:"proxy-arp-purge" (fun () ->
      let now = Net.now w.Topo.net in
      let valid_homes =
        List.filter_map
          (fun (b : Mobileip.Types.binding) ->
            if Mobileip.Types.binding_valid ~now b then Some b.home else None)
          (Mobileip.Home_agent.bindings w.Topo.ha)
      in
      let orphans =
        List.filter
          (fun a -> not (List.exists (Ipv4_addr.equal a) valid_homes))
          (Net.proxy_arp_entries (Mobileip.Home_agent.node w.Topo.ha))
      in
      (* Forget addresses that regained a binding or were removed. *)
      let gone =
        Hashtbl.fold
          (fun a _ acc ->
            if List.exists (Ipv4_addr.equal a) orphans then acc else a :: acc)
          first_seen []
      in
      List.iter (Hashtbl.remove first_seen) gone;
      List.iter
        (fun a ->
          if not (Hashtbl.mem first_seen a) then Hashtbl.add first_seen a now)
        orphans;
      let overdue =
        List.find_opt
          (fun a -> now -. Hashtbl.find first_seen a > grace)
          orphans
      in
      Option.map
        (fun a ->
          Printf.sprintf
            "proxy-ARP entry for %s has had no valid binding since %.3f \
             (now %.3f)"
            (Ipv4_addr.to_string a)
            (Hashtbl.find first_seen a)
            now)
        overdue)

let add_selector_discipline t =
  let w = t.world in
  Invariant.add_check t.inv ~name:"selector-discipline" (fun () ->
      match Mobileip.Mobile_host.selector w.Topo.mh with
      | None -> None
      | Some sel ->
          let offender =
            List.find_map
              (fun dst ->
                let m = Mobileip.Mobile_host.out_method_for w.Topo.mh ~dst in
                if
                  List.exists (Mobileip.Grid.equal_out m)
                    (Mobileip.Selector.failed_methods sel ~dst)
                then Some (dst, m)
                else None)
              (Mobileip.Selector.known_destinations sel)
          in
          Option.map
            (fun (dst, m) ->
              Printf.sprintf "sending to %s via %s, a method recorded failed"
                (Ipv4_addr.to_string dst)
                (Mobileip.Grid.out_to_string m))
            offender)

(* Failover discipline for worlds with a paired standby home agent:
   (a) the two agents never proxy-ARP for the same address at the same
   time (the failback ordering guarantees this), and (b) a crashed
   primary does not stay uncovered — the standby must take over within
   [grace] of the crash becoming observable: 10 s, wider than the default
   detection timeout of 5 s plus two 2 s detection intervals.  No-op
   without a standby. *)
let add_ha_failover t =
  let grace = 10.0 in
  let w = t.world in
  match w.Topo.ha_standby with
  | None -> ()
  | Some standby ->
      let down_since = ref None in
      Invariant.add_check t.inv ~name:"ha-failover-recovery" (fun () ->
          let now = Net.now w.Topo.net in
          let primary = w.Topo.ha in
          let p_entries =
            Net.proxy_arp_entries (Mobileip.Home_agent.node primary)
          in
          let s_entries =
            Net.proxy_arp_entries (Mobileip.Home_agent.node standby)
          in
          let dup =
            List.find_opt
              (fun a -> List.exists (Ipv4_addr.equal a) s_entries)
              p_entries
          in
          match dup with
          | Some a ->
              Some
                (Printf.sprintf
                   "both home agents proxy-ARP for %s at %.3f"
                   (Ipv4_addr.to_string a) now)
          | None ->
              if Mobileip.Home_agent.is_up primary then begin
                down_since := None;
                None
              end
              else begin
                (match !down_since with
                | None -> down_since := Some now
                | Some _ -> ());
                let t0 = Option.get !down_since in
                if
                  Mobileip.Home_agent.is_standby_active standby
                  || not (Mobileip.Home_agent.is_up standby)
                  || now -. t0 <= grace
                then None
                else
                  Some
                    (Printf.sprintf
                       "primary home agent down since %.3f but the standby \
                        has not taken over by %.3f (grace %.1f s)"
                       t0 now grace)
              end)

let add_recovery ~after t =
  let w = t.world in
  Invariant.add_final t.inv ~name:"eventual-recovery" (fun () ->
      let now = Net.now w.Topo.net in
      if now < after then None
      else
        let mh = w.Topo.mh in
        if Mobileip.Mobile_host.at_home mh || Mobileip.Mobile_host.registered mh
        then None
        else
          Some
            (Printf.sprintf
               "mobile host away and unregistered at %.3f, %.1f s after the \
                last scripted fault"
               now (now -. after)))

let add_tcp_stream ~expected t conn =
  let error = ref None in
  let offset = ref 0 in
  Transport.Tcp.on_receive conn (fun data ->
      Bytes.iteri
        (fun i c ->
          let pos = !offset + i in
          let want = expected pos in
          if !error = None && c <> want then
            error :=
              Some
                (Printf.sprintf
                   "byte %d: got %C, expected %C (stream reordered, \
                    duplicated or corrupted)"
                   pos c want))
        data;
      offset := !offset + Bytes.length data);
  Invariant.add_check t.inv ~name:"tcp-stream" (fun () -> !error)

let install_standard ?recovery_after t =
  add_binding_lifetime t;
  add_withdrawal t;
  add_proxy_arp t;
  add_selector_discipline t;
  add_ha_failover t;
  Option.iter (fun after -> add_recovery ~after t) recovery_after

let start ?interval ?ticks t = Invariant.start t.inv ?interval ?ticks ()
let check_now t = Invariant.check_now t.inv

let finish t =
  Invariant.finish t.inv;
  (* A run that ends violated without the callback having fired a useful
     snapshot (or with violations only found by the final checks) still
     gets whatever the ring holds now. *)
  (match t.recorder with
  | Some r when Invariant.violated t.inv && t.tail = [] ->
      t.tail <- Trace.ring_tail r
  | _ -> ());
  detach_recorder t
let violations t = Invariant.violations t.inv
