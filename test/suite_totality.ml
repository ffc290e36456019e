(* Every wire and JSON decoder is total: whatever bytes it is handed, it
   returns a value or an error and never raises.  Two kinds of input:
   random byte strings, and valid encodings with bytes changed, cut off or
   appended.  Each mutated encoding is decoded as it is, and again with its
   length fields, checksums or authenticator made consistent, so that it
   gets past the checks that guard the deeper decoding. *)

open Netsim

let src = Ipv4_addr.of_string "36.1.0.5"
let dst = Ipv4_addr.of_string "44.2.0.10"
let key = "k"

let decode_options opts =
  ignore (Ipv4_options.parse_lsr opts);
  ignore (Ipv4_options.lsr_next_hop opts);
  ignore (Ipv4_options.advance_lsr opts ~here:src);
  ignore (Ipv4_options.has_options opts);
  ignore (Ipv4_options.copied_options opts)

(* Hand [buf] to every decoder, and a decoded packet's options to the
   option decoders; any exception fails the property. *)
let decode_all buf =
  (match Ipv4_packet.decode buf with
  | Ok p -> decode_options p.Ipv4_packet.options
  | Error _ -> ());
  ignore (Icmp_wire.decode buf);
  ignore (Icmp_wire.context_original (Icmp_wire.quote_context buf));
  ignore (Icmp_wire.context_original buf);
  ignore (Tcp_wire.decode ~src ~dst buf);
  ignore (Udp_wire.decode ~src ~dst buf);
  ignore (Mobileip.Registration.decode_request ~key buf);
  ignore (Mobileip.Registration.decode_reply ~key buf);
  ignore (Mobileip.Registration.peek_request_home buf);
  ignore (Mobileip.Registration.peek_request_home_agent buf);
  ignore (Mobileip.Registration.peek_reply_home buf);
  decode_options buf;
  ignore (Mobileip.Foreign_agent.advert_agent_address buf);
  ignore (Json.of_string (Bytes.to_string buf));
  true

let hex buf =
  String.concat " "
    (List.init (Bytes.length buf) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get buf i))))

let prop_random_bytes =
  QCheck.Test.make ~name:"decoders total on random bytes" ~count:2000
    (QCheck.make ~print:hex QCheck.Gen.(bytes_size (0 -- 80)))
    decode_all

(* ---- valid encodings ---- *)

open QCheck.Gen

let gen_addr = map Ipv4_addr.of_int32 ui32
let gen_u16 = int_bound 0xffff
let gen_body n = bytes_size (0 -- n)

let gen_udp =
  let+ src_port = gen_u16 and+ dst_port = gen_u16 and+ body = gen_body 32 in
  Udp_wire.make ~src_port ~dst_port body

let gen_tcp =
  let+ src_port = gen_u16
  and+ dst_port = gen_u16
  and+ seq = map (fun x -> Int32.to_int x land 0xffff_ffff) ui32
  and+ ack_n = map (fun x -> Int32.to_int x land 0xffff_ffff) ui32
  and+ flags =
    oneofl Tcp_wire.[ flag_syn; flag_syn_ack; flag_ack; flag_fin_ack; flag_rst ]
  and+ body = gen_body 32 in
  Tcp_wire.make ~src_port ~dst_port ~seq ~ack_n ~flags body

let gen_icmp =
  oneof
    [
      (let+ ident = gen_u16 and+ seq = gen_u16 and+ payload = gen_body 16 in
       Icmp_wire.Echo_request { ident; seq; payload });
      (let+ code =
         oneofl
           Icmp_wire.
             [
               Net_unreachable; Host_unreachable; Protocol_unreachable;
               Port_unreachable; Fragmentation_needed; Admin_prohibited;
             ]
       and+ context = gen_body 28 in
       Icmp_wire.Dest_unreachable { code; context });
      (let+ home = gen_addr and+ care_of = gen_addr and+ lifetime = gen_u16 in
       Icmp_wire.Care_of_advert { home; care_of; lifetime });
    ]

let gen_lsr =
  let+ via = list_size (1 -- 9) gen_addr in
  Ipv4_options.build_lsr ~via

let gen_packet =
  let+ protocol, payload =
    oneof
      [
        map (fun u -> (Ipv4_packet.P_udp, Ipv4_packet.Udp u)) gen_udp;
        map (fun t -> (Ipv4_packet.P_tcp, Ipv4_packet.Tcp t)) gen_tcp;
        map (fun i -> (Ipv4_packet.P_icmp, Ipv4_packet.Icmp i)) gen_icmp;
        map (fun b -> (Ipv4_packet.P_other 99, Ipv4_packet.Raw b)) (gen_body 32);
      ]
  and+ src = gen_addr
  and+ dst = gen_addr
  and+ options = oneof [ return Bytes.empty; gen_lsr ]
  and+ tunnel = opt (oneofl Mobileip.Encap.all_modes)
  and+ outer_src = gen_addr
  and+ outer_dst = gen_addr in
  let pkt = Ipv4_packet.make ~options ~protocol ~src ~dst payload in
  match tunnel with
  | None -> pkt
  | Some mode -> Mobileip.Encap.wrap mode ~src:outer_src ~dst:outer_dst pkt

let gen_request =
  let+ home = gen_addr
  and+ home_agent = gen_addr
  and+ care_of = gen_addr
  and+ lifetime = gen_u16
  and+ sequence = gen_u16 in
  Mobileip.Registration.encode_request ~key
    { Mobileip.Registration.home; home_agent; care_of; lifetime; sequence }

let gen_reply =
  let+ r_home = gen_addr
  and+ r_care_of = gen_addr
  and+ r_lifetime = gen_u16
  and+ r_sequence = gen_u16
  and+ r_code =
    oneofl Mobileip.Types.[ Reg_accepted; Reg_denied_auth; Reg_denied_stale ]
  in
  Mobileip.Registration.encode_reply ~key
    { Mobileip.Registration.r_home; r_care_of; r_lifetime; r_sequence; r_code }

(* Make a mutated encoding consistent again: the fields a decoder checks
   before it reads the rest. *)
let set_checksum buf off sum = Bytes.set_uint16_be buf off (Checksum.finish sum)

let fix_ipv4 buf =
  let n = Bytes.length buf in
  if n >= 20 then begin
    Bytes.set_uint16_be buf 2 n;
    let hlen = (Char.code (Bytes.get buf 0) land 0xf) * 4 in
    if hlen >= 20 && hlen <= n then begin
      Bytes.set_uint16_be buf 10 0;
      set_checksum buf 10 (Checksum.ones_complement_sum buf 0 hlen)
    end
  end

let fix_icmp buf =
  let n = Bytes.length buf in
  if n >= 4 then begin
    Bytes.set_uint16_be buf 2 0;
    set_checksum buf 2 (Checksum.ones_complement_sum buf 0 n)
  end

let fix_udp buf =
  (* A zero checksum field means the sender computed none. *)
  if Bytes.length buf >= 8 then begin
    Bytes.set_uint16_be buf 4 (Bytes.length buf);
    Bytes.set_uint16_be buf 6 0
  end

let fix_tcp buf =
  let n = Bytes.length buf in
  if n >= 18 then begin
    Bytes.set_uint16_be buf 16 0;
    let initial = Checksum.pseudo_header_sum ~src ~dst ~protocol:6 ~length:n in
    set_checksum buf 16 (Checksum.ones_complement_sum ~initial buf 0 n)
  end

let fix_auth len buf =
  if Bytes.length buf = len + 4 then
    Bytes.set_int32_be buf len
      (Int32.of_int
         (Mobileip.Registration.authenticator ~key (Bytes.sub buf 0 len)))

let encodings =
  [
    ("ipv4", map Ipv4_packet.encode gen_packet, fix_ipv4);
    ("icmp", map Icmp_wire.encode gen_icmp, fix_icmp);
    ("tcp", map (Tcp_wire.encode ~src ~dst) gen_tcp, fix_tcp);
    ("udp", map (Udp_wire.encode ~src ~dst) gen_udp, fix_udp);
    ("registration request", gen_request, fix_auth 17);
    ("registration reply", gen_reply, fix_auth 14);
    ("lsr option", gen_lsr, ignore);
  ]

(* ---- mutations ---- *)

(* A byte set to a value that sits on a boundary some decoder tests (a
   length, an IHL, a pointer, an option type), or to any value; a bit
   flipped; the tail cut off; bytes appended.  Positions are taken modulo
   the buffer's length, and half of the byte settings land in the first 24
   bytes, where the headers are. *)
let mutate buf =
  let n = Bytes.length buf in
  let edit i f =
    if n = 0 then buf
    else
      let b = Bytes.copy buf and i = i mod n in
      Bytes.set b i (Char.chr (f (Char.code (Bytes.get b i))));
      b
  in
  frequency
    [
      ( 4,
        let+ i = oneof [ int_bound 23; int_bound 1023 ]
        and+ v =
          oneof
            [ oneofl [ 0; 1; 3; 4; 5; 7; 8; 0x7f; 0x80; 0xff ]; int_bound 0xff ]
        in
        edit i (fun _ -> v) );
      ( 2,
        let+ i = int_bound 1023 and+ bit = int_bound 7 in
        edit i (fun c -> c lxor (1 lsl bit)) );
      (1, map (fun k -> Bytes.sub buf 0 (k mod (n + 1))) (int_bound 1023));
      (1, map (Bytes.cat buf) (bytes_size (1 -- 16)));
    ]

let gen_mutated =
  let* name, gen, fix = oneofl encodings in
  let* buf = gen in
  let* k = 1 -- 4 in
  let rec mutate_times k buf =
    if k = 0 then return buf else mutate buf >>= mutate_times (k - 1)
  in
  let+ mutated = mutate_times k buf in
  let fixed = Bytes.copy mutated in
  fix fixed;
  (name, mutated, fixed)

let prop_mutated_encodings =
  QCheck.Test.make ~name:"decoders total on mutated encodings" ~count:3000
    (QCheck.make
       ~print:(fun (name, mutated, fixed) ->
         Printf.sprintf "%s\nmutated: %s\nfixed:   %s" name (hex mutated)
           (hex fixed))
       gen_mutated)
    (fun (_, mutated, fixed) -> decode_all mutated && decode_all fixed)

let suites =
  [
    ( "totality",
      [
        QCheck_alcotest.to_alcotest prop_random_bytes;
        QCheck_alcotest.to_alcotest prop_mutated_encodings;
      ] );
  ]
