type verdict = Pass | Reject of Trace.drop_reason

type matcher = {
  in_iface : string option;
  src_in : Ipv4_addr.Prefix.t list;  (* src must be inside one of these *)
  src_outside : Ipv4_addr.Prefix.t list;  (* src must be outside all *)
  dst_in : Ipv4_addr.Prefix.t option;
  protocols : Ipv4_packet.protocol list;  (* empty = any *)
}

type rule = { matcher : matcher; verdict : verdict; label : string }

let any_matcher =
  { in_iface = None; src_in = []; src_outside = []; dst_in = None; protocols = [] }

let matches m ~in_iface (pkt : Ipv4_packet.t) =
  (match m.in_iface with None -> true | Some i -> i = in_iface)
  && (m.src_in = [] || List.exists (Ipv4_addr.Prefix.mem pkt.src) m.src_in)
  && (m.src_outside = []
     || not (List.exists (Ipv4_addr.Prefix.mem pkt.src) m.src_outside))
  && (match m.dst_in with
     | None -> true
     | Some p -> Ipv4_addr.Prefix.mem pkt.dst p)
  && (m.protocols = [] || List.mem pkt.protocol m.protocols)

let rule_to_string r = r.label

let ingress_source_filter ~external_iface ~inside =
  {
    matcher = { any_matcher with in_iface = Some external_iface; src_in = inside };
    verdict = Reject Trace.Ingress_filter;
    label = Printf.sprintf "ingress-source-filter on %s" external_iface;
  }

let no_transit ~internal_iface ~inside =
  {
    matcher =
      { any_matcher with in_iface = Some internal_iface; src_outside = inside };
    verdict = Reject Trace.Transit_filter;
    label = Printf.sprintf "no-transit on %s" internal_iface;
  }

let firewall_allow_tunnel_to ~external_iface ~home_agent =
  {
    matcher =
      {
        any_matcher with
        in_iface = Some external_iface;
        dst_in = Some (Ipv4_addr.Prefix.make home_agent 32);
        protocols = Ipv4_packet.[ P_ipip; P_gre; P_minimal ];
      };
    verdict = Pass;
    label = "firewall: allow tunnels to home agent";
  }

let firewall_block_external ~external_iface ~name =
  {
    matcher = { any_matcher with in_iface = Some external_iface };
    verdict = Reject (Trace.Firewall name);
    label = Printf.sprintf "firewall: block external (%s)" name;
  }

let general ?in_iface ?src_in ?dst_in ?protocol verdict label =
  {
    matcher =
      {
        in_iface;
        src_in = Option.to_list src_in;
        src_outside = [];
        dst_in;
        protocols = Option.to_list protocol;
      };
    verdict;
    label;
  }

let allow ?in_iface ?src_in ?dst_in ?protocol () =
  general ?in_iface ?src_in ?dst_in ?protocol Pass "allow"

let deny ?in_iface ?src_in ?dst_in ?protocol ~reason () =
  general ?in_iface ?src_in ?dst_in ?protocol (Reject reason) "deny"

type policy = { rules : rule list; default : verdict }

let accept_all = { rules = []; default = Pass }
let of_rules rules = { rules; default = Pass }
let of_rules_default_deny ~reason rules = { rules; default = Reject reason }

(* Direct recursion: a closure over [in_iface] and [pkt] would cost every
   packet an allocation, rules or not. *)
let rec first_verdict ~in_iface pkt default = function
  | [] -> default
  | r :: rest ->
      if matches r.matcher ~in_iface pkt then r.verdict
      else first_verdict ~in_iface pkt default rest

let evaluate policy ~in_iface pkt =
  first_verdict ~in_iface pkt policy.default policy.rules

let rules p = p.rules

let pp fmt p =
  List.iter (fun r -> Format.fprintf fmt "%s@." r.label) p.rules;
  Format.fprintf fmt "default: %s@."
    (match p.default with Pass -> "pass" | Reject _ -> "reject")
