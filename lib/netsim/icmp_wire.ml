type unreach_code =
  | Net_unreachable
  | Host_unreachable
  | Protocol_unreachable
  | Port_unreachable
  | Fragmentation_needed
  | Admin_prohibited

type t =
  | Echo_request of { ident : int; seq : int; payload : Bytes.t }
  | Echo_reply of { ident : int; seq : int; payload : Bytes.t }
  | Dest_unreachable of { code : unreach_code; context : Bytes.t }
  | Time_exceeded of { context : Bytes.t }
  | Care_of_advert of { home : Ipv4_addr.t; care_of : Ipv4_addr.t; lifetime : int }

let care_of_advert_type = 40

let unreach_code_to_int = function
  | Net_unreachable -> 0
  | Host_unreachable -> 1
  | Protocol_unreachable -> 2
  | Port_unreachable -> 3
  | Fragmentation_needed -> 4
  | Admin_prohibited -> 13

let unreach_code_of_int = function
  | 0 -> Ok Net_unreachable
  | 1 -> Ok Host_unreachable
  | 2 -> Ok Protocol_unreachable
  | 3 -> Ok Port_unreachable
  | 4 -> Ok Fragmentation_needed
  | 13 -> Ok Admin_prohibited
  | c -> Error (Printf.sprintf "icmp: unknown unreachable code %d" c)

let byte_length = function
  | Echo_request { payload; _ } | Echo_reply { payload; _ } ->
      8 + Bytes.length payload
  | Dest_unreachable { context; _ } | Time_exceeded { context } ->
      8 + Bytes.length context
  | Care_of_advert _ -> 8 + 8

let encode t =
  let len = byte_length t in
  let buf = Bytes.make len '\000' in
  let set_type_code ty code =
    Bytes.set buf 0 (Char.chr ty);
    Bytes.set buf 1 (Char.chr code)
  in
  (match t with
  | Echo_request { ident; seq; payload } ->
      set_type_code 8 0;
      Bytes.set_uint16_be buf 4 ident;
      Bytes.set_uint16_be buf 6 seq;
      Bytes.blit payload 0 buf 8 (Bytes.length payload)
  | Echo_reply { ident; seq; payload } ->
      set_type_code 0 0;
      Bytes.set_uint16_be buf 4 ident;
      Bytes.set_uint16_be buf 6 seq;
      Bytes.blit payload 0 buf 8 (Bytes.length payload)
  | Dest_unreachable { code; context } ->
      set_type_code 3 (unreach_code_to_int code);
      Bytes.blit context 0 buf 8 (Bytes.length context)
  | Time_exceeded { context } ->
      set_type_code 11 0;
      Bytes.blit context 0 buf 8 (Bytes.length context)
  | Care_of_advert { home; care_of; lifetime } ->
      set_type_code care_of_advert_type 0;
      Bytes.set_uint16_be buf 6 lifetime;
      Ipv4_addr.write buf 8 home;
      Ipv4_addr.write buf 12 care_of);
  let csum = Checksum.compute buf in
  Bytes.set_uint16_be buf 2 csum;
  buf

let decode buf =
  let n = Bytes.length buf in
  if n < 8 then Error "icmp: truncated"
  else if not (Checksum.valid buf) then Error "icmp: bad checksum"
  else
    let ty = Char.code (Bytes.get buf 0) in
    let code = Char.code (Bytes.get buf 1) in
    let rest off = Bytes.sub buf off (n - off) in
    match ty with
    | 8 | 0 ->
        let ident = Bytes.get_uint16_be buf 4
        and seq = Bytes.get_uint16_be buf 6
        and payload = rest 8 in
        Ok
          (if ty = 8 then Echo_request { ident; seq; payload }
           else Echo_reply { ident; seq; payload })
    | 3 ->
        Result.map
          (fun code -> Dest_unreachable { code; context = rest 8 })
          (unreach_code_of_int code)
    | 11 -> Ok (Time_exceeded { context = rest 8 })
    | t when t = care_of_advert_type ->
        if n < 16 then Error "icmp: truncated care-of advert"
        else
          Ok
            (Care_of_advert
               {
                 home = Ipv4_addr.read buf 8;
                 care_of = Ipv4_addr.read buf 12;
                 lifetime = Bytes.get_uint16_be buf 6;
               })
    | t -> Error (Printf.sprintf "icmp: unknown type %d" t)

let quote_context wire =
  let n = Bytes.length wire in
  if n < 1 then Bytes.create 0
  else
    let ihl = (Char.code (Bytes.get wire 0) land 0x0f) * 4 in
    Bytes.sub wire 0 (min n (ihl + 8))

let context_original ctx =
  if Bytes.length ctx < 20 then None
  else Some (Ipv4_addr.read ctx 12, Ipv4_addr.read ctx 16)

let equal a b =
  match (a, b) with
  | Echo_request x, Echo_request y ->
      x.ident = y.ident && x.seq = y.seq && Bytes.equal x.payload y.payload
  | Echo_reply x, Echo_reply y ->
      x.ident = y.ident && x.seq = y.seq && Bytes.equal x.payload y.payload
  | Dest_unreachable x, Dest_unreachable y ->
      x.code = y.code && Bytes.equal x.context y.context
  | Time_exceeded x, Time_exceeded y -> Bytes.equal x.context y.context
  | Care_of_advert x, Care_of_advert y ->
      Ipv4_addr.equal x.home y.home
      && Ipv4_addr.equal x.care_of y.care_of
      && x.lifetime = y.lifetime
  | ( ( Echo_request _ | Echo_reply _ | Dest_unreachable _ | Time_exceeded _
      | Care_of_advert _ ),
      _ ) ->
      false

let pp_unreach_code fmt c =
  Format.pp_print_string fmt
    (match c with
    | Net_unreachable -> "net-unreachable"
    | Host_unreachable -> "host-unreachable"
    | Protocol_unreachable -> "protocol-unreachable"
    | Port_unreachable -> "port-unreachable"
    | Fragmentation_needed -> "fragmentation-needed"
    | Admin_prohibited -> "admin-prohibited")

let pp fmt = function
  | Echo_request { ident; seq; _ } ->
      Format.fprintf fmt "ICMP echo-request id=%d seq=%d" ident seq
  | Echo_reply { ident; seq; _ } ->
      Format.fprintf fmt "ICMP echo-reply id=%d seq=%d" ident seq
  | Dest_unreachable { code; _ } ->
      Format.fprintf fmt "ICMP dest-unreachable (%a)" pp_unreach_code code
  | Time_exceeded _ -> Format.fprintf fmt "ICMP time-exceeded"
  | Care_of_advert { home; care_of; lifetime } ->
      Format.fprintf fmt "ICMP care-of-advert home=%a coa=%a life=%ds"
        Ipv4_addr.pp home Ipv4_addr.pp care_of lifetime
