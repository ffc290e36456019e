type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

let flag_syn = { no_flags with syn = true }
let flag_syn_ack = { no_flags with syn = true; ack = true }
let flag_ack = { no_flags with ack = true }
let flag_fin_ack = { no_flags with fin = true; ack = true }
let flag_rst = { no_flags with rst = true }

let pp_flags fmt f =
  let names =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [
        (f.syn, "SYN"); (f.ack, "ACK"); (f.fin, "FIN");
        (f.rst, "RST"); (f.psh, "PSH"); (f.urg, "URG");
      ]
  in
  Format.pp_print_string fmt
    (if names = [] then "-" else String.concat "|" names)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_n : int;
  flags : flags;
  window : int;
  payload : Bytes.t;
}

let header_length = 20
let seq_modulus = 0x1_0000_0000
let seq_add a b = (a + b) mod seq_modulus

(* RFC 793 §3.3: [b] is at or after [a] when it lies less than half the
   sequence space ahead of it, counting modulo 2^32. *)
let seq_leq a b = (b - a) land (seq_modulus - 1) < seq_modulus / 2
let seq_lt a b = a <> b && seq_leq a b

let make ~src_port ~dst_port ~seq ~ack_n ~flags ?(window = 65535) payload =
  let check name v limit =
    if v < 0 || v >= limit then
      invalid_arg (Printf.sprintf "Tcp_wire.make: %s %d out of range" name v)
  in
  check "src_port" src_port 0x10000;
  check "dst_port" dst_port 0x10000;
  check "seq" seq seq_modulus;
  check "ack" ack_n seq_modulus;
  check "window" window 0x10000;
  { src_port; dst_port; seq; ack_n; flags; window; payload }

let byte_length t = header_length + Bytes.length t.payload

let flags_byte f =
  (if f.urg then 0x20 else 0)
  lor (if f.ack then 0x10 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.syn then 0x02 else 0)
  lor if f.fin then 0x01 else 0

let flags_of_byte b =
  {
    urg = b land 0x20 <> 0;
    ack = b land 0x10 <> 0;
    psh = b land 0x08 <> 0;
    rst = b land 0x04 <> 0;
    syn = b land 0x02 <> 0;
    fin = b land 0x01 <> 0;
  }

let encode ~src ~dst t =
  let len = byte_length t in
  let buf = Bytes.make len '\000' in
  Bytes.set_uint16_be buf 0 t.src_port;
  Bytes.set_uint16_be buf 2 t.dst_port;
  Bytes.set_int32_be buf 4 (Int32.of_int t.seq);
  Bytes.set_int32_be buf 8 (Int32.of_int t.ack_n);
  (* Data offset: 5 32-bit words, no options. *)
  Bytes.set buf 12 (Char.chr (5 lsl 4));
  Bytes.set buf 13 (Char.chr (flags_byte t.flags));
  Bytes.set_uint16_be buf 14 t.window;
  Bytes.blit t.payload 0 buf 20 (Bytes.length t.payload);
  let pseudo = Checksum.pseudo_header_sum ~src ~dst ~protocol:6 ~length:len in
  let sum = Checksum.ones_complement_sum ~initial:pseudo buf 0 len in
  Bytes.set_uint16_be buf 16 (Checksum.finish sum);
  buf

let decode ~src ~dst buf =
  let n = Bytes.length buf in
  if n < header_length then Error "tcp: truncated header"
  else
    let data_offset = (Char.code (Bytes.get buf 12) lsr 4) * 4 in
    if data_offset < header_length || data_offset > n then
      Error "tcp: bad data offset"
    else
      let pseudo =
        Checksum.pseudo_header_sum ~src ~dst ~protocol:6 ~length:n
      in
      let sum = Checksum.ones_complement_sum ~initial:pseudo buf 0 n in
      if sum land 0xffff <> 0xffff then Error "tcp: bad checksum"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be buf 0;
            dst_port = Bytes.get_uint16_be buf 2;
            seq = Int32.to_int (Bytes.get_int32_be buf 4) land 0xffff_ffff;
            ack_n = Int32.to_int (Bytes.get_int32_be buf 8) land 0xffff_ffff;
            flags = flags_of_byte (Char.code (Bytes.get buf 13));
            window = Bytes.get_uint16_be buf 14;
            payload = Bytes.sub buf data_offset (n - data_offset);
          }

let equal a b =
  a.src_port = b.src_port && a.dst_port = b.dst_port && a.seq = b.seq
  && a.ack_n = b.ack_n && a.flags = b.flags && a.window = b.window
  && Bytes.equal a.payload b.payload

let pp fmt t =
  Format.fprintf fmt "TCP %d->%d seq=%d ack=%d [%a] (%d bytes)" t.src_port
    t.dst_port t.seq t.ack_n pp_flags t.flags (Bytes.length t.payload)
