(* E16 — handover churn under a standard fault plan.

   Every cell of the 4x4 grid carries a steady CH->MH probe stream (with
   echoes back) for thirty seconds while the world misbehaves on a fixed
   schedule: the mobile host changes its care-of address twice, frames are
   duplicated, the visited LAN flaps, the home access link's latency
   spikes, a window of reordering jitter hits, the home agent crashes and
   comes back, and finally the home network is partitioned from the
   backbone.  Reported per cell: probes lost, recovery time after each
   disruptive event (first probe delivered at the MH afterwards), the
   registration traffic the churn cost, and the fault plan's own drop and
   duplication counters.

   Everything is seeded — two runs with the same seed produce identical
   tables. *)

open Mobileip

type cell_result = {
  cell : Grid.cell;
  probes_sent : int;
  probes_delivered : int;  (* arrived at the mobile host *)
  replies_delivered : int;  (* echoes back at the correspondent *)
  lost : int;
  move1_recovery : float option;  (* s from the event to the next delivery *)
  move2_recovery : float option;
  crash_recovery : float option;  (* measured from the HA restart *)
  reg_transmissions : int;  (* registration requests sent during churn *)
  fault : Netsim.Fault.stats;
}

(* The standard fault plan, relative to [t0] (all cells get the same one). *)
let move1_at = 5.0
let move2_at = 15.0
let crash_at = 20.0
let restart_at = 22.0

let probe_interval = 0.25
let probe_count = 120 (* 30 s of probes *)
let probe_port = 40007
let echo_port = 40008

let seed = 0x16c4

let run_cell (cell : Grid.cell) =
  let open Scenarios in
  let same_segment = cell.Grid.incoming = Grid.In_DH in
  let topo =
    Topo.build
      ~ch_position:(if same_segment then Topo.On_visited_segment else Topo.Remote)
      ~ch_capability:Correspondent.Mobile_aware ~mh_lifetime:10 ()
  in
  let net = topo.Topo.net in
  let eng = Netsim.Net.engine net in
  let mh = topo.Topo.mh in
  let ch = topo.Topo.ch in
  let ch_addr = topo.Topo.ch_addr in
  let visited_prefix = topo.Topo.visited_prefix in
  let gateway = Netsim.Ipv4_addr.of_string "131.7.0.1" in
  let addr_a = Netsim.Ipv4_addr.of_string "131.7.0.200" in
  let addr_b = Netsim.Ipv4_addr.of_string "131.7.0.201" in
  (* Settle on the visited segment and drain before the churn begins. *)
  Mobile_host.move_to_static mh topo.Topo.visited_segment ~addr:addr_a
    ~prefix:visited_prefix ~gateway ();
  Topo.run topo;
  let home, _coa = Conversation.configure ~mh ~ch ~ch_addr ~cell in
  Mobile_host.enable_keepalive mh ~margin:5.0 ~max_renewals:12 ();
  Home_agent.enable_purge topo.Topo.ha ~interval:5.0 ();
  let reg_before = Mobile_host.registration_attempts mh in
  let t0 = Netsim.Engine.now eng in

  (* The scripted faults. *)
  let fault = Netsim.Fault.attach ~seed net in
  (* Duplication is rolled per frame copy per hop, so it compounds along
     multi-hop paths; 10% per hop is already very visible on the
     twelve-hop In-IE/Out-IE round trip. *)
  Netsim.Fault.duplicate_window fault ~from_:(t0 +. 4.0) ~until:(t0 +. 6.0)
    ~rate:0.1;
  Netsim.Fault.flap fault ~link:"visited-lan" ~down:(t0 +. 8.0)
    ~up:(t0 +. 9.5);
  Netsim.Fault.latency_spike fault ~link:"hr<->b0" ~from_:(t0 +. 12.0)
    ~until:(t0 +. 14.0) ~extra:0.3;
  Netsim.Fault.reorder_window fault ~from_:(t0 +. 16.0) ~until:(t0 +. 18.0)
    ~rate:0.5 ~max_extra:0.2;
  Netsim.Fault.at fault ~time:(t0 +. crash_at) (fun () ->
      Home_agent.crash topo.Topo.ha);
  Netsim.Fault.at fault ~time:(t0 +. restart_at) (fun () ->
      Home_agent.restart topo.Topo.ha);
  Netsim.Fault.partition fault ~from_:(t0 +. 24.0) ~until:(t0 +. 26.0)
    ~a:[ "hr" ] ~b:[ "b0" ];

  (* The two handovers: a new care-of address each time, with a binding
     update to the (mobile-aware) correspondent once re-registered. *)
  let move target =
    Mobile_host.move_to_static mh topo.Topo.visited_segment ~addr:target
      ~prefix:visited_prefix ~gateway
      ~on_registered:(fun ok ->
        if ok then ignore (Mobile_host.send_binding_update mh ~correspondent:ch_addr ()))
      ()
  in
  Netsim.Engine.schedule eng ~at:(t0 +. move1_at) (fun () -> move addr_b);
  Netsim.Engine.schedule eng ~at:(t0 +. move2_at) (fun () -> move addr_a);

  (* Probe stream: the CH sends to the home address every quarter second;
     the MH echoes each probe back.  Delivery timestamps at the MH are the
     raw material for the loss and recovery metrics. *)
  let mh_udp = Transport.Udp_service.get (Mobile_host.node mh) in
  let ch_udp = Transport.Udp_service.get (Correspondent.node ch) in
  (* Each probe carries its sequence number; both ends deduplicate, so a
     frame the duplication window copied still counts as one probe. *)
  let seen_mh = Hashtbl.create 128 in
  let seen_ch = Hashtbl.create 128 in
  let delivery_times = ref [] in
  Transport.Udp_service.listen mh_udp ~port:probe_port (fun svc dgram ->
      let payload = dgram.Transport.Udp_service.payload in
      let k = Bytes.get_uint16_be payload 0 in
      if not (Hashtbl.mem seen_mh k) then begin
        Hashtbl.replace seen_mh k ();
        delivery_times := Netsim.Engine.now eng :: !delivery_times;
        let src =
          match (cell.Grid.outgoing, Mobile_host.care_of_address mh) with
          | Grid.Out_DT, Some coa -> coa
          | _ -> home
        in
        ignore
          (Transport.Udp_service.send svc ~src ~dst:ch_addr
             ~src_port:probe_port ~dst_port:echo_port payload)
      end);
  Transport.Udp_service.listen ch_udp ~port:echo_port (fun _ dgram ->
      Hashtbl.replace seen_ch
        (Bytes.get_uint16_be dgram.Transport.Udp_service.payload 0)
        ());
  for k = 0 to probe_count - 1 do
    Netsim.Engine.schedule eng
      ~at:(t0 +. (probe_interval *. float_of_int k))
      (fun () ->
        let payload = Bytes.make 32 'p' in
        Bytes.set_uint16_be payload 0 k;
        ignore
          (Transport.Udp_service.send ch_udp ~dst:home
             ~src_port:(41000 + k) ~dst_port:probe_port payload))
  done;
  Netsim.Net.run net;

  (* Recovery after an event: the gap from the event to the first probe
     the mobile host actually received afterwards. *)
  let times = List.sort compare (List.rev !delivery_times) in
  let recovery_after at =
    let abs = t0 +. at in
    List.find_map (fun d -> if d >= abs then Some (d -. abs) else None) times
  in
  Conversation.deconfigure ~mh ~ch ~ch_addr;
  let delivered = Hashtbl.length seen_mh in
  {
    cell;
    probes_sent = probe_count;
    probes_delivered = delivered;
    replies_delivered = Hashtbl.length seen_ch;
    lost = probe_count - delivered;
    move1_recovery = recovery_after move1_at;
    move2_recovery = recovery_after move2_at;
    crash_recovery = recovery_after restart_at;
    reg_transmissions = Mobile_host.registration_attempts mh - reg_before;
    fault = Netsim.Fault.stats fault;
  }

let opt_s = function
  | Some x -> Printf.sprintf "%.0fms" (x *. 1000.0)
  | None -> "-"

let run () =
  let rows =
    List.map
      (fun cell ->
        let r = run_cell cell in
        [
          Grid.cell_to_string cell;
          Table.pct r.probes_delivered r.probes_sent;
          Table.pct r.replies_delivered r.probes_sent;
          string_of_int r.lost;
          opt_s r.move1_recovery;
          opt_s r.move2_recovery;
          opt_s r.crash_recovery;
          string_of_int r.reg_transmissions;
          Printf.sprintf "%d/%d/%d/%d" r.fault.Netsim.Fault.flap_drops
            r.fault.Netsim.Fault.partition_drops r.fault.Netsim.Fault.duplicated
            r.fault.Netsim.Fault.delayed;
        ])
      Grid.all_cells
  in
  {
    Table.id = "E16";
    title = "Handover churn and fault injection across the 4x4 grid";
    paper_claim =
      "mobility must keep working when the network misbehaves: the paper's \
       methods differ in how many packets each handover or agent failure \
       costs and how quickly delivery resumes";
    columns =
      [
        "cell";
        "probes del";
        "echoed";
        "lost";
        "rec move1";
        "rec move2";
        "rec ha-crash";
        "reg tx";
        "flap/part/dup/reord";
      ];
    rows;
    notes =
      [
        Printf.sprintf
          "probes every %.0f ms for %.0f s; moves at t+%.0fs and t+%.0fs; \
           visited LAN flaps 8-9.5s; latency spike on the home access link \
           12-14s; reordering 16-18s; home agent down %.0f-%.0fs; home net \
           partitioned 24-26s"
          (probe_interval *. 1000.0)
          (probe_interval *. float_of_int probe_count)
          move1_at move2_at crash_at restart_at;
        "rec columns: gap from the event to the next probe delivered at the \
         MH (ha-crash measured from the restart); In-* rows that bypass the \
         home agent recover from its crash in one probe interval";
        Printf.sprintf
          "deterministic: fault seed 0x%04x; same seed, same table"
          seed;
      ];
  }
