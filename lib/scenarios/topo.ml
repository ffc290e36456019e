open Netsim

type ch_position = Inside_home | Remote | Near_visited | On_visited_segment

type filtering = {
  home_ingress : bool;
  visited_no_transit : bool;
  home_firewall : bool;
}

let no_filtering =
  { home_ingress = false; visited_no_transit = false; home_firewall = false }

let ingress_only =
  { home_ingress = true; visited_no_transit = false; home_firewall = false }

let strict =
  { home_ingress = true; visited_no_transit = true; home_firewall = false }

type t = {
  net : Net.t;
  home_prefix : Ipv4_addr.Prefix.t;
  home_segment : Net.segment;
  home_router : Net.node;
  ha : Mobileip.Home_agent.t;
  ha_standby : Mobileip.Home_agent.t option;
  visited_prefix : Ipv4_addr.Prefix.t;
  visited_segment : Net.segment;
  visited_router : Net.node;
  dhcp : Transport.Dhcp.Server.t;
  ch_node : Net.node;
  ch : Mobileip.Correspondent.t;
  ch_addr : Ipv4_addr.t;
  mh_node : Net.node;
  mh : Mobileip.Mobile_host.t;
  mh_home_addr : Ipv4_addr.t;
  backbone : Net.node list;
  dns_node : Net.node option;
  dns : Mobileip.Dns_ext.Server.t option;
  dns_addr : Ipv4_addr.t option;
  cellular_segment : Net.segment option;
  cellular_router : Net.node option;
}

let addr = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string

let build ?(backbone_hops = 4) ?(ch_position = Remote)
    ?(filtering = no_filtering)
    ?(ch_capability = Mobileip.Correspondent.Conventional)
    ?(notify_correspondents = false) ?(with_dns = false)
    ?(encap = Mobileip.Encap.Ipip) ?(link_latency = 0.010)
    ?(with_cellular = false) ?(mh_lifetime = 300) ?(mh_retry_base = 1.0)
    ?(mh_retry_cap = 8.0) ?(mh_retry_limit = 6) ?(with_standby_ha = false)
    ?(standby_detect_interval = 2.0) ?(standby_detect_timeout = 5.0) () =
  if backbone_hops < 2 then invalid_arg "Topo.build: need >= 2 backbone hops";
  let net = Net.create () in
  let home_prefix = prefix "36.1.0.0/16" in
  let visited_prefix = prefix "131.7.0.0/16" in
  let ch_prefix = prefix "44.2.0.0/16" in

  (* Backbone chain b0 .. b(n-1). *)
  let backbone =
    List.init backbone_hops (fun i -> Net.add_router net (Printf.sprintf "b%d" i))
  in
  let backbone_arr = Array.of_list backbone in
  let n = backbone_hops in
  (* Link b_i <-> b_{i+1}: prefix 10.0.i.0/30, left .1, right .2. *)
  for i = 0 to n - 2 do
    let p = prefix (Printf.sprintf "10.0.%d.0/30" i) in
    let left = Ipv4_addr.Prefix.host p 1 and right = Ipv4_addr.Prefix.host p 2 in
    ignore
      (Net.p2p net ~latency:link_latency ~prefix:p
         (backbone_arr.(i), Printf.sprintf "r%d" i, left)
         (backbone_arr.(i + 1), Printf.sprintf "l%d" (i + 1), right))
  done;
  let left_neighbour_addr i = addr (Printf.sprintf "10.0.%d.1" (i - 1)) in
  let right_neighbour_addr i = addr (Printf.sprintf "10.0.%d.2" i) in

  (* Home domain off b0. *)
  let home_router = Net.add_router net "hr" in
  let hr_wan = prefix "10.1.0.0/30" in
  ignore
    (Net.p2p net ~latency:link_latency ~prefix:hr_wan
       (home_router, "wan", Ipv4_addr.Prefix.host hr_wan 1)
       (backbone_arr.(0), "home", Ipv4_addr.Prefix.host hr_wan 2));
  let home_segment = Net.add_segment net ~name:"home-lan" () in
  let _hr_lan =
    Net.attach home_router home_segment ~ifname:"lan" ~addr:(addr "36.1.0.1")
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing home_router)
    ~gateway:(Ipv4_addr.Prefix.host hr_wan 2) ~iface:"wan";

  let ha_node = Net.add_host net "ha" in
  let ha_iface =
    Net.attach ha_node home_segment ~ifname:"eth0" ~addr:(addr "36.1.0.2")
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing ha_node) ~gateway:(addr "36.1.0.1")
    ~iface:"eth0";
  let ha =
    Mobileip.Home_agent.create ha_node ~home_iface:ha_iface ~encap
      ~notify_correspondents ()
  in

  (* Optional hot-standby home agent on the same segment. *)
  let ha_standby =
    if not with_standby_ha then None
    else begin
      let ha2_node = Net.add_host net "ha2" in
      let ha2_iface =
        Net.attach ha2_node home_segment ~ifname:"eth0" ~addr:(addr "36.1.0.4")
          ~prefix:home_prefix
      in
      Routing.add_default (Net.routing ha2_node) ~gateway:(addr "36.1.0.1")
        ~iface:"eth0";
      let ha2 =
        Mobileip.Home_agent.create ha2_node ~home_iface:ha2_iface ~encap
          ~notify_correspondents ()
      in
      (* Pair without arming the liveness tick: the world settles (fully
         drains) at least once before any experiment phase, which would
         consume the tick budget.  Callers arm with {!arm_standby} after
         settling. *)
      Mobileip.Home_agent.pair ~primary:ha ~standby:ha2
        ~detect_interval:standby_detect_interval
        ~detect_timeout:standby_detect_timeout ~watch_now:false ();
      Some ha2
    end
  in

  (* Visited domain off b(n-1). *)
  let visited_router = Net.add_router net "vr" in
  let vr_wan = prefix "10.2.0.0/30" in
  ignore
    (Net.p2p net ~latency:link_latency ~prefix:vr_wan
       (visited_router, "wan", Ipv4_addr.Prefix.host vr_wan 1)
       (backbone_arr.(n - 1), "visited", Ipv4_addr.Prefix.host vr_wan 2));
  let visited_segment = Net.add_segment net ~name:"visited-lan" () in
  let _vr_lan =
    Net.attach visited_router visited_segment ~ifname:"lan"
      ~addr:(addr "131.7.0.1") ~prefix:visited_prefix
  in
  Routing.add_default (Net.routing visited_router)
    ~gateway:(Ipv4_addr.Prefix.host vr_wan 2) ~iface:"wan";

  let dhcp_node = Net.add_host net "dhcpd" in
  ignore
    (Net.attach dhcp_node visited_segment ~ifname:"eth0"
       ~addr:(addr "131.7.0.2") ~prefix:visited_prefix);
  let dhcp =
    Transport.Dhcp.Server.create dhcp_node ~pool:visited_prefix
      ~first_host:100 ~last_host:199 ~gateway:(addr "131.7.0.1") ()
  in

  (* Correspondent. *)
  let ch_attach_index =
    match ch_position with
    | Inside_home | On_visited_segment -> -1
    | Remote -> n / 2
    | Near_visited -> n - 1
  in
  let ch_node = Net.add_host net "ch" in
  let ch_addr =
    match ch_position with
    | Inside_home ->
        ignore
          (Net.attach ch_node home_segment ~ifname:"eth0"
             ~addr:(addr "36.1.0.10") ~prefix:home_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:(addr "36.1.0.1")
          ~iface:"eth0";
        addr "36.1.0.10"
    | On_visited_segment ->
        ignore
          (Net.attach ch_node visited_segment ~ifname:"eth0"
             ~addr:(addr "131.7.0.10") ~prefix:visited_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:(addr "131.7.0.1")
          ~iface:"eth0";
        addr "131.7.0.10"
    | Remote | Near_visited ->
        let cr = Net.add_router net "cr" in
        let cr_wan = prefix "10.3.0.0/30" in
        ignore
          (Net.p2p net ~latency:link_latency ~prefix:cr_wan
             (cr, "wan", Ipv4_addr.Prefix.host cr_wan 1)
             (backbone_arr.(ch_attach_index), "corr", Ipv4_addr.Prefix.host cr_wan 2));
        let ch_segment = Net.add_segment net ~name:"ch-lan" () in
        ignore
          (Net.attach cr ch_segment ~ifname:"lan" ~addr:(addr "44.2.0.1")
             ~prefix:ch_prefix);
        Routing.add_default (Net.routing cr)
          ~gateway:(Ipv4_addr.Prefix.host cr_wan 2) ~iface:"wan";
        ignore
          (Net.attach ch_node ch_segment ~ifname:"eth0" ~addr:(addr "44.2.0.10")
             ~prefix:ch_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:(addr "44.2.0.1")
          ~iface:"eth0";
        addr "44.2.0.10"
  in
  let ch = Mobileip.Correspondent.create ch_node ~capability:ch_capability ~encap () in

  (* Backbone routing: stub prefixes plus the access links. *)
  let route_towards i target_index via_home via_visited via_ch p =
    let table = Net.routing backbone_arr.(i) in
    if target_index < i then
      Routing.add table ~gateway:(left_neighbour_addr i)
        ~prefix:p ~iface:(Printf.sprintf "l%d" i) ()
    else if target_index > i then
      Routing.add table ~gateway:(right_neighbour_addr i)
        ~prefix:p ~iface:(Printf.sprintf "r%d" i) ()
    else begin
      (* directly attached stub *)
      match (via_home, via_visited, via_ch) with
      | Some gw, _, _ -> Routing.add table ~gateway:gw ~prefix:p ~iface:"home" ()
      | _, Some gw, _ -> Routing.add table ~gateway:gw ~prefix:p ~iface:"visited" ()
      | _, _, Some gw -> Routing.add table ~gateway:gw ~prefix:p ~iface:"corr" ()
      | None, None, None -> ()
    end
  in
  for i = 0 to n - 1 do
    (* Home prefix and the home access link live at index 0. *)
    route_towards i 0 (Some (Ipv4_addr.Prefix.host hr_wan 1)) None None home_prefix;
    route_towards i 0 (Some (Ipv4_addr.Prefix.host hr_wan 1)) None None hr_wan;
    (* Visited prefix at index n-1. *)
    route_towards i (n - 1) None (Some (Ipv4_addr.Prefix.host vr_wan 1)) None
      visited_prefix;
    route_towards i (n - 1) None (Some (Ipv4_addr.Prefix.host vr_wan 1)) None
      vr_wan;
    (* Correspondent prefix, when it has its own domain. *)
    if ch_attach_index >= 0 then begin
      let cr_wan = prefix "10.3.0.0/30" in
      route_towards i ch_attach_index None None
        (Some (Ipv4_addr.Prefix.host cr_wan 1))
        ch_prefix;
      route_towards i ch_attach_index None None
        (Some (Ipv4_addr.Prefix.host cr_wan 1))
        cr_wan
    end
  done;

  (* Filtering policies (§3.1). *)
  if filtering.home_firewall then
    Net.set_filter home_router
      (Filter.of_rules
         [
           Filter.firewall_allow_tunnel_to ~external_iface:"wan"
             ~home_agent:(Mobileip.Home_agent.address ha);
           Filter.allow ~in_iface:"wan"
             ~dst_in:(Ipv4_addr.Prefix.make (Mobileip.Home_agent.address ha) 32)
             ();
           Filter.firewall_block_external ~external_iface:"wan"
             ~name:"home-firewall";
         ])
  else if filtering.home_ingress then
    Net.set_filter home_router
      (Filter.of_rules
         [
           Filter.ingress_source_filter ~external_iface:"wan"
             ~inside:[ home_prefix ];
         ]);
  if filtering.visited_no_transit then
    Net.set_filter visited_router
      (Filter.of_rules
         [ Filter.no_transit ~internal_iface:"lan" ~inside:[ visited_prefix ] ]);

  (* The mobile host, initially at home. *)
  let mh_home_addr = addr "36.1.0.5" in
  let mh_node = Net.add_host net "mh" in
  let mh_iface =
    Net.attach mh_node home_segment ~ifname:"eth0" ~addr:mh_home_addr
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing mh_node) ~gateway:(addr "36.1.0.1")
    ~iface:"eth0";
  let mh =
    Mobileip.Mobile_host.create mh_node ~iface:mh_iface ~home:mh_home_addr
      ~home_prefix ~home_agent:(Mobileip.Home_agent.address ha) ~encap
      ~lifetime:mh_lifetime ~retry_base:mh_retry_base ~retry_cap:mh_retry_cap
      ~retry_limit:mh_retry_limit ()
  in

  (* Optional cellular attachment near the visited domain (§1): a slow,
     high-latency, slightly lossy access link with its own address space
     and DHCP. *)
  let cellular_prefix = prefix "166.4.0.0/16" in
  let cell_wan = prefix "10.4.0.0/30" in
  let cellular_segment, cellular_router =
    if not with_cellular then (None, None)
    else begin
      let cr_cell = Net.add_router net "gw-cell" in
      ignore
        (Net.p2p net ~latency:0.150 ~bandwidth:9600.0 ~loss:0.02
           ~loss_seed:0x1996 ~prefix:cell_wan
           (cr_cell, "wan", Ipv4_addr.Prefix.host cell_wan 1)
           (backbone_arr.(n - 1), "cell", Ipv4_addr.Prefix.host cell_wan 2));
      let seg = Net.add_segment net ~name:"cellular-lan" ~latency:0.002 () in
      ignore
        (Net.attach cr_cell seg ~ifname:"lan" ~addr:(addr "166.4.0.1")
           ~prefix:cellular_prefix);
      Routing.add_default (Net.routing cr_cell)
        ~gateway:(Ipv4_addr.Prefix.host cell_wan 2) ~iface:"wan";
      let dhcp_cell = Net.add_host net "dhcpd-cell" in
      ignore
        (Net.attach dhcp_cell seg ~ifname:"eth0" ~addr:(addr "166.4.0.2")
           ~prefix:cellular_prefix);
      let (_ : Transport.Dhcp.Server.t) =
        Transport.Dhcp.Server.create dhcp_cell ~pool:cellular_prefix
          ~first_host:100 ~last_host:199 ~gateway:(addr "166.4.0.1") ()
      in
      (* Backbone routes toward the cellular stub. *)
      for i = 0 to n - 1 do
        let table = Net.routing backbone_arr.(i) in
        List.iter
          (fun p ->
            if i < n - 1 then
              Routing.add table ~gateway:(right_neighbour_addr i) ~prefix:p
                ~iface:(Printf.sprintf "r%d" i) ()
            else
              Routing.add table
                ~gateway:(Ipv4_addr.Prefix.host cell_wan 1)
                ~prefix:p ~iface:"cell" ())
          [ cellular_prefix; cell_wan ]
      done;
      (Some seg, Some cr_cell)
    end
  in

  (* Optional DNS service in the home domain. *)
  let dns_node, dns, dns_addr =
    if with_dns then begin
      let node = Net.add_host net "dns" in
      ignore
        (Net.attach node home_segment ~ifname:"eth0" ~addr:(addr "36.1.0.3")
           ~prefix:home_prefix);
      Routing.add_default (Net.routing node) ~gateway:(addr "36.1.0.1")
        ~iface:"eth0";
      let server = Mobileip.Dns_ext.Server.create node () in
      Mobileip.Dns_ext.Server.add_host server ~name:"mh.home" ~addr:mh_home_addr;
      (Some node, Some server, Some (addr "36.1.0.3"))
    end
    else (None, None, None)
  in

  {
    net;
    home_prefix;
    home_segment;
    home_router;
    ha;
    ha_standby;
    visited_prefix;
    visited_segment;
    visited_router;
    dhcp;
    ch_node;
    ch;
    ch_addr;
    mh_node;
    mh;
    mh_home_addr;
    backbone;
    dns_node;
    dns;
    dns_addr;
    cellular_segment;
    cellular_router;
  }

let run t = Net.run t.net

let arm_standby ?ticks t =
  match t.ha_standby with
  | None -> ()
  | Some s -> Mobileip.Home_agent.watch s ?ticks ()

(* Chaos targets: the names the fault layer knows a [build
   ~backbone_hops:n] world by, without building it.  Segment names and
   point-to-point link names as {!Netsim.Net} reports them to the fault
   hook. *)
let chaos_links ~backbone_hops:n =
  let backbone_links =
    List.init (n - 1) (fun i -> Printf.sprintf "b%d<->b%d" i (i + 1))
  in
  [ "home-lan"; "visited-lan"; "hr<->b0"; Printf.sprintf "vr<->b%d" (n - 1) ]
  @ backbone_links

let chaos_cuts ~backbone_hops:n =
  let names first count =
    List.init count (fun i -> Printf.sprintf "b%d" (first + i))
  in
  let mid = n / 2 in
  [
    (* isolate the home domain *)
    ([ "hr" ], [ "b0" ]);
    (* isolate the visited domain *)
    ([ "vr" ], [ Printf.sprintf "b%d" (n - 1) ]);
    (* split the backbone down the middle *)
    (names 0 mid, names mid (n - mid));
  ]

let roam t ?(on_registered = fun _ -> ()) () =
  Mobileip.Mobile_host.move_to_dhcp t.mh t.visited_segment ~on_registered ();
  run t

let roam_static t ?(on_registered = fun _ -> ()) () =
  Mobileip.Mobile_host.move_to_static t.mh t.visited_segment
    ~addr:(addr "131.7.0.200") ~prefix:t.visited_prefix
    ~gateway:(addr "131.7.0.1") ~on_registered ();
  run t

let roam_cellular t ?(on_registered = fun _ -> ()) () =
  match t.cellular_segment with
  | None ->
      invalid_arg "Topo.roam_cellular: build the world with ~with_cellular:true"
  | Some seg ->
      Mobileip.Mobile_host.move_to_dhcp t.mh seg ~on_registered ();
      run t

let come_home t =
  Mobileip.Mobile_host.return_home t.mh t.home_segment ();
  run t
