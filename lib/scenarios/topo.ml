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

(* The world's fixed addresses and prefixes, parsed once. *)
let addr = Ipv4_addr.of_string
let prefix = Ipv4_addr.Prefix.of_string
let home_prefix = prefix "36.1.0.0/16"
let visited_prefix = prefix "131.7.0.0/16"
let ch_prefix = prefix "44.2.0.0/16"
let cellular_prefix = prefix "166.4.0.0/16"

(* Access links to the backbone: the stub router is .1, the backbone .2. *)
let hr_wan = prefix "10.1.0.0/30"
let vr_wan = prefix "10.2.0.0/30"
let cr_wan = prefix "10.3.0.0/30"
let cell_wan = prefix "10.4.0.0/30"
let stub_side p = Ipv4_addr.Prefix.host p 1
let backbone_side p = Ipv4_addr.Prefix.host p 2
let home_gw = addr "36.1.0.1"
let visited_gw = addr "131.7.0.1"
let ch_gw = addr "44.2.0.1"
let cellular_gw = addr "166.4.0.1"
let ha_addr = addr "36.1.0.2"
let dns_server_addr = addr "36.1.0.3"
let ha2_addr = addr "36.1.0.4"
let mh_home_addr = addr "36.1.0.5"
let home_ch_addr = addr "36.1.0.10"
let dhcp_addr = addr "131.7.0.2"
let visited_ch_addr = addr "131.7.0.10"
let static_care_of = addr "131.7.0.200"
let remote_ch_addr = addr "44.2.0.10"
let cellular_dhcp_addr = addr "166.4.0.2"

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

  (* Backbone chain b0 .. b(n-1). *)
  let n = backbone_hops in
  let backbone_arr =
    Array.init n (fun i -> Net.add_router net ("b" ^ string_of_int i))
  in
  let backbone = Array.to_list backbone_arr in
  (* b_i's interfaces toward b_{i-1} and b_{i+1}. *)
  let lname = Array.init n (fun i -> "l" ^ string_of_int i) in
  let rname = Array.init n (fun i -> "r" ^ string_of_int i) in
  (* Link b_i <-> b_{i+1}: prefix 10.0.i.0/30, left .1, right .2. *)
  let links =
    Array.init (n - 1) (fun i ->
        Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 0 i 0) 30)
  in
  let left_end = Array.map (fun p -> Ipv4_addr.Prefix.host p 1) links in
  let right_end = Array.map (fun p -> Ipv4_addr.Prefix.host p 2) links in
  for i = 0 to n - 2 do
    ignore
      (Net.p2p net ~latency:link_latency ~prefix:links.(i)
         (backbone_arr.(i), rname.(i), left_end.(i))
         (backbone_arr.(i + 1), lname.(i + 1), right_end.(i)))
  done;

  (* Home domain off b0. *)
  let home_router = Net.add_router net "hr" in
  ignore
    (Net.p2p net ~latency:link_latency ~prefix:hr_wan
       (home_router, "wan", stub_side hr_wan)
       (backbone_arr.(0), "home", backbone_side hr_wan));
  let home_segment = Net.add_segment net ~name:"home-lan" () in
  let _hr_lan =
    Net.attach home_router home_segment ~ifname:"lan" ~addr:home_gw
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing home_router)
    ~gateway:(backbone_side hr_wan) ~iface:"wan";

  let ha_node = Net.add_host net "ha" in
  let ha_iface =
    Net.attach ha_node home_segment ~ifname:"eth0" ~addr:ha_addr
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing ha_node) ~gateway:home_gw ~iface:"eth0";
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
        Net.attach ha2_node home_segment ~ifname:"eth0" ~addr:ha2_addr
          ~prefix:home_prefix
      in
      Routing.add_default (Net.routing ha2_node) ~gateway:home_gw
        ~iface:"eth0";
      let ha2 =
        Mobileip.Home_agent.create ha2_node ~home_iface:ha2_iface ~encap
          ~notify_correspondents ()
      in
      Mobileip.Home_agent.pair ~primary:ha ~standby:ha2
        ~detect_interval:standby_detect_interval
        ~detect_timeout:standby_detect_timeout ();
      Some ha2
    end
  in

  (* Visited domain off b(n-1). *)
  let visited_router = Net.add_router net "vr" in
  ignore
    (Net.p2p net ~latency:link_latency ~prefix:vr_wan
       (visited_router, "wan", stub_side vr_wan)
       (backbone_arr.(n - 1), "visited", backbone_side vr_wan));
  let visited_segment = Net.add_segment net ~name:"visited-lan" () in
  let _vr_lan =
    Net.attach visited_router visited_segment ~ifname:"lan" ~addr:visited_gw
      ~prefix:visited_prefix
  in
  Routing.add_default (Net.routing visited_router)
    ~gateway:(backbone_side vr_wan) ~iface:"wan";

  let dhcp_node = Net.add_host net "dhcpd" in
  ignore
    (Net.attach dhcp_node visited_segment ~ifname:"eth0" ~addr:dhcp_addr
       ~prefix:visited_prefix);
  let dhcp =
    Transport.Dhcp.Server.create dhcp_node ~pool:visited_prefix
      ~first_host:100 ~last_host:199 ~gateway:visited_gw ()
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
          (Net.attach ch_node home_segment ~ifname:"eth0" ~addr:home_ch_addr
             ~prefix:home_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:home_gw
          ~iface:"eth0";
        home_ch_addr
    | On_visited_segment ->
        ignore
          (Net.attach ch_node visited_segment ~ifname:"eth0"
             ~addr:visited_ch_addr ~prefix:visited_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:visited_gw
          ~iface:"eth0";
        visited_ch_addr
    | Remote | Near_visited ->
        let cr = Net.add_router net "cr" in
        ignore
          (Net.p2p net ~latency:link_latency ~prefix:cr_wan
             (cr, "wan", stub_side cr_wan)
             (backbone_arr.(ch_attach_index), "corr", backbone_side cr_wan));
        let ch_segment = Net.add_segment net ~name:"ch-lan" () in
        ignore
          (Net.attach cr ch_segment ~ifname:"lan" ~addr:ch_gw
             ~prefix:ch_prefix);
        Routing.add_default (Net.routing cr)
          ~gateway:(backbone_side cr_wan) ~iface:"wan";
        ignore
          (Net.attach ch_node ch_segment ~ifname:"eth0" ~addr:remote_ch_addr
             ~prefix:ch_prefix);
        Routing.add_default (Net.routing ch_node) ~gateway:ch_gw
          ~iface:"eth0";
        remote_ch_addr
  in
  let ch = Mobileip.Correspondent.create ch_node ~capability:ch_capability ~encap () in

  (* Backbone routing: stub prefixes plus the access links.  [target] is
     the backbone router the stub hangs off, through [stub_iface] to the
     stub router at [stub_gw]. *)
  let route_towards i target (stub_iface, stub_gw) p =
    let table = Net.routing backbone_arr.(i) in
    if target < i then
      Routing.add table ~gateway:left_end.(i - 1) ~prefix:p ~iface:lname.(i) ()
    else if target > i then
      Routing.add table ~gateway:right_end.(i) ~prefix:p ~iface:rname.(i) ()
    else Routing.add table ~gateway:stub_gw ~prefix:p ~iface:stub_iface ()
  in
  let home_stub = ("home", stub_side hr_wan)
  and visited_stub = ("visited", stub_side vr_wan)
  and ch_stub = ("corr", stub_side cr_wan) in
  for i = 0 to n - 1 do
    (* Home prefix and the home access link live at index 0. *)
    route_towards i 0 home_stub home_prefix;
    route_towards i 0 home_stub hr_wan;
    (* Visited prefix at index n-1. *)
    route_towards i (n - 1) visited_stub visited_prefix;
    route_towards i (n - 1) visited_stub vr_wan;
    (* Correspondent prefix, when it has its own domain. *)
    if ch_attach_index >= 0 then begin
      route_towards i ch_attach_index ch_stub ch_prefix;
      route_towards i ch_attach_index ch_stub cr_wan
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
  let mh_node = Net.add_host net "mh" in
  let mh_iface =
    Net.attach mh_node home_segment ~ifname:"eth0" ~addr:mh_home_addr
      ~prefix:home_prefix
  in
  Routing.add_default (Net.routing mh_node) ~gateway:home_gw ~iface:"eth0";
  let mh =
    Mobileip.Mobile_host.create mh_node ~iface:mh_iface ~home:mh_home_addr
      ~home_prefix ~home_agent:(Mobileip.Home_agent.address ha) ~encap
      ~lifetime:mh_lifetime ~retry_base:mh_retry_base ~retry_cap:mh_retry_cap
      ~retry_limit:mh_retry_limit ()
  in

  (* Optional cellular attachment near the visited domain (§1): a slow,
     high-latency, slightly lossy access link with its own address space
     and DHCP. *)
  let cellular_segment, cellular_router =
    if not with_cellular then (None, None)
    else begin
      let cr_cell = Net.add_router net "gw-cell" in
      ignore
        (Net.p2p net ~latency:0.150 ~bandwidth:9600.0 ~loss:0.02
           ~loss_seed:0x1996 ~prefix:cell_wan
           (cr_cell, "wan", stub_side cell_wan)
           (backbone_arr.(n - 1), "cell", backbone_side cell_wan));
      let seg = Net.add_segment net ~name:"cellular-lan" ~latency:0.002 () in
      ignore
        (Net.attach cr_cell seg ~ifname:"lan" ~addr:cellular_gw
           ~prefix:cellular_prefix);
      Routing.add_default (Net.routing cr_cell)
        ~gateway:(backbone_side cell_wan) ~iface:"wan";
      let dhcp_cell = Net.add_host net "dhcpd-cell" in
      ignore
        (Net.attach dhcp_cell seg ~ifname:"eth0" ~addr:cellular_dhcp_addr
           ~prefix:cellular_prefix);
      let (_ : Transport.Dhcp.Server.t) =
        Transport.Dhcp.Server.create dhcp_cell ~pool:cellular_prefix
          ~first_host:100 ~last_host:199 ~gateway:cellular_gw ()
      in
      (* Backbone routes toward the cellular stub. *)
      let cell_stub = ("cell", stub_side cell_wan) in
      for i = 0 to n - 1 do
        route_towards i (n - 1) cell_stub cellular_prefix;
        route_towards i (n - 1) cell_stub cell_wan
      done;
      (Some seg, Some cr_cell)
    end
  in

  (* Optional DNS service in the home domain. *)
  let dns_node, dns, dns_addr =
    if with_dns then begin
      let node = Net.add_host net "dns" in
      ignore
        (Net.attach node home_segment ~ifname:"eth0" ~addr:dns_server_addr
           ~prefix:home_prefix);
      Routing.add_default (Net.routing node) ~gateway:home_gw ~iface:"eth0";
      let server = Mobileip.Dns_ext.Server.create node () in
      Mobileip.Dns_ext.Server.add_host server ~name:"mh.home" ~addr:mh_home_addr;
      (Some node, Some server, Some dns_server_addr)
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
    ~addr:static_care_of ~prefix:t.visited_prefix ~gateway:visited_gw
    ~on_registered ();
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
