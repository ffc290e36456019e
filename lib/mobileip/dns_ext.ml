open Netsim

(* Wire format, all messages on UDP port 53:
   query:    op=1, name_len(1), name
   response: op=2, name_len(1), name, flags(1: bit0 permanent, bit1 temp),
             permanent(4), temporary(4), ttl(2)
   update:   op=3, name_len(1), name, care_of(4), ttl(2) — ttl 0 withdraws *)

let op_query = 1
let op_response = 2
let op_update = 3

let put_addr buf off a =
  let o1, o2, o3, o4 = Ipv4_addr.to_octets a in
  Bytes.set buf off (Char.chr o1);
  Bytes.set buf (off + 1) (Char.chr o2);
  Bytes.set buf (off + 2) (Char.chr o3);
  Bytes.set buf (off + 3) (Char.chr o4)

let get_addr buf off =
  Ipv4_addr.of_octets
    (Char.code (Bytes.get buf off))
    (Char.code (Bytes.get buf (off + 1)))
    (Char.code (Bytes.get buf (off + 2)))
    (Char.code (Bytes.get buf (off + 3)))

let put_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get_u16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let check_name name =
  if String.length name = 0 || String.length name > 255 then
    invalid_arg "Dns_ext: name must be 1..255 bytes"

let encode_query ~name =
  check_name name;
  let n = String.length name in
  let buf = Bytes.make (2 + n) '\000' in
  Bytes.set buf 0 (Char.chr op_query);
  Bytes.set buf 1 (Char.chr n);
  Bytes.blit_string name 0 buf 2 n;
  buf

let encode_update ~name ~care_of ~ttl =
  check_name name;
  let n = String.length name in
  let buf = Bytes.make (2 + n + 6) '\000' in
  Bytes.set buf 0 (Char.chr op_update);
  Bytes.set buf 1 (Char.chr n);
  Bytes.blit_string name 0 buf 2 n;
  put_addr buf (2 + n) care_of;
  put_u16 buf (6 + n) ttl;
  buf

let decode_name buf =
  if Bytes.length buf < 2 then None
  else
    let n = Char.code (Bytes.get buf 1) in
    if Bytes.length buf < 2 + n then None
    else Some (Bytes.sub_string buf 2 n)

let encode_response ~name ~permanent ~temporary =
  let n = String.length name in
  let buf = Bytes.make (2 + n + 11) '\000' in
  Bytes.set buf 0 (Char.chr op_response);
  Bytes.set buf 1 (Char.chr n);
  Bytes.blit_string name 0 buf 2 n;
  let flags =
    (match permanent with Some _ -> 1 | None -> 0)
    lor match temporary with Some _ -> 2 | None -> 0
  in
  Bytes.set buf (2 + n) (Char.chr flags);
  (match permanent with Some a -> put_addr buf (3 + n) a | None -> ());
  (match temporary with
  | Some (a, ttl) ->
      put_addr buf (7 + n) a;
      put_u16 buf (11 + n) ttl
  | None -> ());
  buf

let decode_response buf =
  match decode_name buf with
  | None -> None
  | Some name ->
      let n = String.length name in
      if Bytes.length buf < 2 + n + 11 then None
      else
        let flags = Char.code (Bytes.get buf (2 + n)) in
        let permanent =
          if flags land 1 <> 0 then Some (get_addr buf (3 + n)) else None
        in
        let temporary =
          if flags land 2 <> 0 then
            Some (get_addr buf (7 + n), get_u16 buf (11 + n))
          else None
        in
        Some (name, permanent, temporary)

module Server = struct
  type record = {
    mutable permanent : Ipv4_addr.t option;
    mutable temporary : (Ipv4_addr.t * int * float) option;
        (* address, ttl, installed-at *)
  }

  type t = {
    srv_node : Net.node;
    zone : (string, record) Hashtbl.t;
    mutable updates : int;
  }

  let record_for t name =
    match Hashtbl.find_opt t.zone name with
    | Some r -> r
    | None ->
        let r = { permanent = None; temporary = None } in
        Hashtbl.add t.zone name r;
        r

  let valid_temporary t r =
    match r.temporary with
    | None -> None
    | Some (a, ttl, at) ->
        let now = Net.node_now t.srv_node in
        let remaining = float_of_int ttl -. (now -. at) in
        if remaining > 0.0 then Some (a, int_of_float (ceil remaining))
        else begin
          r.temporary <- None;
          None
        end

  let handle t udp (dgram : Transport.Udp_service.datagram) =
    let payload = dgram.Transport.Udp_service.payload in
    if Bytes.length payload < 2 then ()
    else
      match Char.code (Bytes.get payload 0) with
      | op when op = op_query -> (
          match decode_name payload with
          | None -> ()
          | Some name ->
              let permanent, temporary =
                match Hashtbl.find_opt t.zone name with
                | None -> (None, None)
                | Some r -> (r.permanent, valid_temporary t r)
              in
              ignore
                (Transport.Udp_service.send udp ~src:dgram.dst ~dst:dgram.src
                   ~src_port:Transport.Well_known.dns
                   ~dst_port:dgram.src_port
                   (encode_response ~name ~permanent ~temporary)))
      | op when op = op_update -> (
          match decode_name payload with
          | None -> ()
          | Some name ->
              let n = String.length name in
              if Bytes.length payload >= 2 + n + 6 then begin
                t.updates <- t.updates + 1;
                let care_of = get_addr payload (2 + n) in
                let ttl = get_u16 payload (6 + n) in
                let r = record_for t name in
                if ttl = 0 then r.temporary <- None
                else
                  r.temporary <-
                    Some (care_of, ttl, Net.node_now t.srv_node)
              end)
      | _ -> ()

  let create node () =
    let t =
      { srv_node = node; zone = Hashtbl.create 16; updates = 0 }
    in
    let udp = Transport.Udp_service.get node in
    Transport.Udp_service.listen udp ~port:Transport.Well_known.dns
      (fun svc dgram -> handle t svc dgram);
    t

  let add_host t ~name ~addr = (record_for t name).permanent <- Some addr

  let set_temporary t ~name v =
    (record_for t name).temporary <-
      (match v with
      | Some (a, ttl) -> Some (a, ttl, Net.node_now t.srv_node)
      | None -> None)

  let lookup t ~name =
    match Hashtbl.find_opt t.zone name with
    | None -> None
    | Some r -> Some (r.permanent, valid_temporary t r)

  let updates_applied t = t.updates
end

module Client = struct
  type answer = {
    name : string;
    permanent : Ipv4_addr.t option;
    temporary : (Ipv4_addr.t * int) option;
  }

  let resolve node ~server ~name callback =
    let udp = Transport.Udp_service.get node in
    let port = Transport.Udp_service.ephemeral_port udp in
    Transport.Udp_service.listen udp ~port (fun svc dgram ->
        match decode_response dgram.Transport.Udp_service.payload with
        | Some (rname, permanent, temporary) when rname = name ->
            Transport.Udp_service.unlisten svc ~port;
            callback { name; permanent; temporary }
        | Some _ | None -> ());
    ignore
      (Transport.Udp_service.send udp ~dst:server ~src_port:port
         ~dst_port:Transport.Well_known.dns (encode_query ~name))

  let publish_temporary node ~server ?src ~name ~care_of ~ttl () =
    let udp = Transport.Udp_service.get node in
    let port = Transport.Udp_service.ephemeral_port udp in
    ignore
      (Transport.Udp_service.send udp ?src ~dst:server ~src_port:port
         ~dst_port:Transport.Well_known.dns
         (encode_update ~name ~care_of ~ttl))
end
