type protocol =
  | P_icmp
  | P_ipip
  | P_tcp
  | P_udp
  | P_gre
  | P_minimal
  | P_other of int

let protocol_to_int = function
  | P_icmp -> 1
  | P_ipip -> 4
  | P_tcp -> 6
  | P_udp -> 17
  | P_gre -> 47
  | P_minimal -> 55
  | P_other n -> n

let protocol_of_int = function
  | 1 -> P_icmp
  | 4 -> P_ipip
  | 6 -> P_tcp
  | 17 -> P_udp
  | 47 -> P_gre
  | 55 -> P_minimal
  | n -> P_other n

let pp_protocol fmt = function
  | P_icmp -> Format.pp_print_string fmt "ICMP"
  | P_ipip -> Format.pp_print_string fmt "IPIP"
  | P_tcp -> Format.pp_print_string fmt "TCP"
  | P_udp -> Format.pp_print_string fmt "UDP"
  | P_gre -> Format.pp_print_string fmt "GRE"
  | P_minimal -> Format.pp_print_string fmt "MINENC"
  | P_other n -> Format.fprintf fmt "proto-%d" n

type t = {
  tos : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;
  ttl : int;
  protocol : protocol;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  options : Bytes.t;
  payload : payload;
}

and payload =
  | Raw of Bytes.t
  | Udp of Udp_wire.t
  | Tcp of Tcp_wire.t
  | Icmp of Icmp_wire.t
  | Encap of t
  | Gre_encap of t
  | Min_encap of t

let min_header_length = 20
let ipip_overhead = 20
let gre_overhead = 24
let minimal_overhead = 12
let gre_header_length = 4
let min_encap_header_length = 12

let make ?(tos = 0) ?(ident = 0) ?(dont_fragment = false) ?(ttl = 64)
    ?(options = Bytes.empty) ~protocol ~src ~dst payload =
  let check name v limit =
    if v < 0 || v >= limit then
      invalid_arg (Printf.sprintf "Ipv4_packet.make: %s %d out of range" name v)
  in
  check "tos" tos 0x100;
  check "ident" ident 0x10000;
  check "ttl" ttl 0x100;
  if Bytes.length options mod 4 <> 0 || Bytes.length options > 40 then
    invalid_arg "Ipv4_packet.make: options must be <= 40 bytes, multiple of 4";
  {
    tos;
    ident;
    dont_fragment;
    more_fragments = false;
    frag_offset = 0;
    ttl;
    protocol;
    src;
    dst;
    options;
    payload;
  }

let header_length t = min_header_length + Bytes.length t.options

let rec payload_byte_length = function
  | Raw b -> Bytes.length b
  | Udp u -> Udp_wire.byte_length u
  | Tcp s -> Tcp_wire.byte_length s
  | Icmp i -> Icmp_wire.byte_length i
  | Encap inner -> byte_length inner
  | Gre_encap inner -> gre_header_length + byte_length inner
  | Min_encap inner ->
      min_encap_header_length + payload_byte_length inner.payload

and byte_length t = header_length t + payload_byte_length t.payload

let set_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get_u16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let set_addr buf off a =
  let x = Ipv4_addr.to_int32 a in
  set_u16 buf off (Int32.to_int (Int32.shift_right_logical x 16) land 0xffff);
  set_u16 buf (off + 2) (Int32.to_int x land 0xffff)

let get_addr buf off =
  let hi = get_u16 buf off and lo = get_u16 buf (off + 2) in
  Ipv4_addr.of_int32
    (Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo))

let rec encode_payload t =
  match t.payload with
  | Raw b -> b
  | Udp u -> Udp_wire.encode ~src:t.src ~dst:t.dst u
  | Tcp s -> Tcp_wire.encode ~src:t.src ~dst:t.dst s
  | Icmp i -> Icmp_wire.encode i
  | Encap inner -> encode inner
  | Gre_encap inner ->
      let body = encode inner in
      let buf = Bytes.make (gre_header_length + Bytes.length body) '\000' in
      (* Flags and version all zero: no checksum, key or sequence fields. *)
      set_u16 buf 2 0x0800;
      Bytes.blit body 0 buf gre_header_length (Bytes.length body);
      buf
  | Min_encap inner ->
      let body = encode_payload inner in
      let buf = Bytes.make (min_encap_header_length + Bytes.length body) '\000' in
      Bytes.set buf 0 (Char.chr (protocol_to_int inner.protocol));
      (* S bit set: we always carry the original source address. *)
      Bytes.set buf 1 (Char.chr 0x80);
      set_addr buf 4 inner.dst;
      set_addr buf 8 inner.src;
      let csum = Checksum.compute_sub buf 0 min_encap_header_length in
      set_u16 buf 2 csum;
      Bytes.blit body 0 buf min_encap_header_length (Bytes.length body);
      buf

and encode t =
  let hlen = header_length t in
  let body = encode_payload t in
  let total = hlen + Bytes.length body in
  if total > 0xffff then
    invalid_arg (Printf.sprintf "Ipv4_packet.encode: %d bytes > 65535" total);
  let buf = Bytes.make total '\000' in
  Bytes.set buf 0 (Char.chr ((4 lsl 4) lor (hlen / 4)));
  Bytes.set buf 1 (Char.chr t.tos);
  set_u16 buf 2 total;
  set_u16 buf 4 t.ident;
  let flags =
    (if t.dont_fragment then 0x4000 else 0)
    lor (if t.more_fragments then 0x2000 else 0)
    lor (t.frag_offset land 0x1fff)
  in
  set_u16 buf 6 flags;
  Bytes.set buf 8 (Char.chr t.ttl);
  Bytes.set buf 9 (Char.chr (protocol_to_int t.protocol));
  set_addr buf 12 t.src;
  set_addr buf 16 t.dst;
  Bytes.blit t.options 0 buf 20 (Bytes.length t.options);
  let csum = Checksum.compute_sub buf 0 hlen in
  set_u16 buf 10 csum;
  Bytes.blit body 0 buf hlen (Bytes.length body);
  buf

(* The checksum [encode] would emit for this packet's header, computed
   field-wise without serialising.  Sums the same 16-bit words as
   [Checksum.compute_sub buf 0 hlen] with the checksum field zero. *)
let header_checksum t =
  let hlen = header_length t in
  let addr_sum a =
    let x = Ipv4_addr.to_int32 a in
    (Int32.to_int (Int32.shift_right_logical x 16) land 0xffff)
    + (Int32.to_int x land 0xffff)
  in
  let flags =
    (if t.dont_fragment then 0x4000 else 0)
    lor (if t.more_fragments then 0x2000 else 0)
    lor (t.frag_offset land 0x1fff)
  in
  let sum =
    ref
      (((((4 lsl 4) lor (hlen / 4)) lsl 8) lor t.tos)
      + byte_length t + t.ident + flags
      + ((t.ttl lsl 8) lor protocol_to_int t.protocol)
      + addr_sum t.src + addr_sum t.dst)
  in
  let n = Bytes.length t.options in
  let i = ref 0 in
  while !i < n do
    sum := !sum + get_u16 t.options !i;
    i := !i + 2
  done;
  Checksum.finish !sum

let is_fragment t = t.more_fragments || t.frag_offset > 0

let rec decode_payload ~outer body =
  if is_fragment outer then Ok (Raw body)
  else
    match outer.protocol with
    | P_udp ->
        Result.map (fun u -> Udp u)
          (Udp_wire.decode ~src:outer.src ~dst:outer.dst body)
    | P_tcp ->
        Result.map (fun s -> Tcp s)
          (Tcp_wire.decode ~src:outer.src ~dst:outer.dst body)
    | P_icmp -> Result.map (fun i -> Icmp i) (Icmp_wire.decode body)
    | P_ipip -> Result.map (fun p -> Encap p) (decode body)
    | P_gre ->
        if Bytes.length body < gre_header_length then Error "gre: truncated"
        else if get_u16 body 0 <> 0 then Error "gre: unsupported flags"
        else if get_u16 body 2 <> 0x0800 then Error "gre: not IPv4 payload"
        else
          let inner =
            Bytes.sub body gre_header_length
              (Bytes.length body - gre_header_length)
          in
          Result.map (fun p -> Gre_encap p) (decode inner)
    | P_minimal ->
        if Bytes.length body < min_encap_header_length then
          Error "minenc: truncated"
        else if Char.code (Bytes.get body 1) land 0x80 = 0 then
          Error "minenc: missing original source (S=0 unsupported)"
        else if
          Checksum.compute_sub body 0 min_encap_header_length <> 0
          && not
               (Checksum.ones_complement_sum body 0 min_encap_header_length
                land 0xffff
               = 0xffff)
        then Error "minenc: bad checksum"
        else
          let inner_protocol = protocol_of_int (Char.code (Bytes.get body 0)) in
          let inner_dst = get_addr body 4 in
          let inner_src = get_addr body 8 in
          let inner_body =
            Bytes.sub body min_encap_header_length
              (Bytes.length body - min_encap_header_length)
          in
          let inner_shell =
            {
              outer with
              protocol = inner_protocol;
              src = inner_src;
              dst = inner_dst;
              options = Bytes.empty;
              payload = Raw inner_body;
            }
          in
          Result.map
            (fun payload -> Min_encap { inner_shell with payload })
            (decode_payload ~outer:inner_shell inner_body)
    | P_other _ -> Ok (Raw body)

and decode buf =
  let n = Bytes.length buf in
  if n < min_header_length then Error "ipv4: truncated header"
  else
    let vihl = Char.code (Bytes.get buf 0) in
    let version = vihl lsr 4 in
    let hlen = (vihl land 0xf) * 4 in
    if version <> 4 then Error (Printf.sprintf "ipv4: version %d" version)
    else if hlen < min_header_length || hlen > n then
      Error "ipv4: bad header length"
    else if Checksum.compute_sub buf 0 hlen <> 0 then Error "ipv4: bad checksum"
    else
      let total = get_u16 buf 2 in
      if total <> n then
        Error (Printf.sprintf "ipv4: total length %d <> buffer %d" total n)
      else
        let flags = get_u16 buf 6 in
        let shell =
          {
            tos = Char.code (Bytes.get buf 1);
            ident = get_u16 buf 4;
            dont_fragment = flags land 0x4000 <> 0;
            more_fragments = flags land 0x2000 <> 0;
            frag_offset = flags land 0x1fff;
            ttl = Char.code (Bytes.get buf 8);
            protocol = protocol_of_int (Char.code (Bytes.get buf 9));
            src = get_addr buf 12;
            dst = get_addr buf 16;
            options = Bytes.sub buf 20 (hlen - 20);
            payload = Raw Bytes.empty;
          }
        in
        let body = Bytes.sub buf hlen (n - hlen) in
        Result.map
          (fun payload -> { shell with payload })
          (decode_payload ~outer:shell body)

let reparse_payload t =
  match t.payload with
  | Raw body when not (is_fragment t) -> (
      match decode_payload ~outer:t body with
      | Ok payload -> { t with payload }
      | Error _ -> t)
  | Raw _ | Udp _ | Tcp _ | Icmp _ | Encap _ | Gre_encap _ | Min_encap _ -> t

exception Ttl_expired

let decrement_ttl t =
  if t.ttl <= 1 then raise Ttl_expired else { t with ttl = t.ttl - 1 }

let rec equal a b =
  a.tos = b.tos && a.ident = b.ident
  && a.dont_fragment = b.dont_fragment
  && a.more_fragments = b.more_fragments
  && a.frag_offset = b.frag_offset && a.ttl = b.ttl
  && a.protocol = b.protocol
  && Ipv4_addr.equal a.src b.src
  && Ipv4_addr.equal a.dst b.dst
  && Bytes.equal a.options b.options
  && equal_payload a.payload b.payload

and equal_payload a b =
  match (a, b) with
  | Raw x, Raw y -> Bytes.equal x y
  | Udp x, Udp y -> Udp_wire.equal x y
  | Tcp x, Tcp y -> Tcp_wire.equal x y
  | Icmp x, Icmp y -> Icmp_wire.equal x y
  | Encap x, Encap y | Gre_encap x, Gre_encap y -> equal x y
  | Min_encap x, Min_encap y ->
      (* Only the fields carried by the minimal-encapsulation header are
         significant for the inner packet. *)
      x.protocol = y.protocol
      && Ipv4_addr.equal x.src y.src
      && Ipv4_addr.equal x.dst y.dst
      && equal_payload x.payload y.payload
  | (Raw _ | Udp _ | Tcp _ | Icmp _ | Encap _ | Gre_encap _ | Min_encap _), _
    ->
      false

let rec pp fmt t =
  Format.fprintf fmt "[%a -> %a %a ttl=%d len=%d%s" Ipv4_addr.pp t.src
    Ipv4_addr.pp t.dst pp_protocol t.protocol t.ttl (byte_length t)
    (if is_fragment t then
       Printf.sprintf " frag(off=%d,mf=%b)" t.frag_offset t.more_fragments
     else "");
  (match t.payload with
  | Encap inner | Gre_encap inner | Min_encap inner ->
      Format.fprintf fmt " %a" pp inner
  | Udp u -> Format.fprintf fmt " %a" Udp_wire.pp u
  | Tcp s -> Format.fprintf fmt " %a" Tcp_wire.pp s
  | Icmp i -> Format.fprintf fmt " %a" Icmp_wire.pp i
  | Raw _ -> ());
  Format.fprintf fmt "]"
