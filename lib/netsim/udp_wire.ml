type t = { src_port : int; dst_port : int; payload : Bytes.t }

let header_length = 8

let check_port p =
  if p < 0 || p > 0xffff then
    invalid_arg (Printf.sprintf "Udp_wire: port %d out of range" p)

let make ~src_port ~dst_port payload =
  check_port src_port;
  check_port dst_port;
  { src_port; dst_port; payload }

let byte_length t = header_length + Bytes.length t.payload

let encode ~src ~dst t =
  let len = byte_length t in
  let buf = Bytes.create len in
  Bytes.set_uint16_be buf 0 t.src_port;
  Bytes.set_uint16_be buf 2 t.dst_port;
  Bytes.set_uint16_be buf 4 len;
  Bytes.set_uint16_be buf 6 0;
  Bytes.blit t.payload 0 buf 8 (Bytes.length t.payload);
  let pseudo =
    Checksum.pseudo_header_sum ~src ~dst ~protocol:17 ~length:len
  in
  let sum = Checksum.ones_complement_sum ~initial:pseudo buf 0 len in
  let csum = Checksum.finish sum in
  (* RFC 768: a computed checksum of zero is transmitted as all ones. *)
  Bytes.set_uint16_be buf 6 (if csum = 0 then 0xffff else csum);
  buf

let decode ~src ~dst buf =
  let n = Bytes.length buf in
  if n < header_length then Error "udp: truncated header"
  else
    let len = Bytes.get_uint16_be buf 4 in
    if len <> n then Error (Printf.sprintf "udp: length field %d <> %d" len n)
    else
      let csum_field = Bytes.get_uint16_be buf 6 in
      let checksum_ok =
        (* A zero checksum field means the sender did not compute one. *)
        csum_field = 0
        ||
        let pseudo =
          Checksum.pseudo_header_sum ~src ~dst ~protocol:17 ~length:len
        in
        let sum = Checksum.ones_complement_sum ~initial:pseudo buf 0 len in
        sum land 0xffff = 0xffff
      in
      if not checksum_ok then Error "udp: bad checksum"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be buf 0;
            dst_port = Bytes.get_uint16_be buf 2;
            payload = Bytes.sub buf 8 (n - 8);
          }

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port
  && Bytes.equal a.payload b.payload

let pp fmt t =
  Format.fprintf fmt "UDP %d->%d (%d bytes)" t.src_port t.dst_port
    (Bytes.length t.payload)
