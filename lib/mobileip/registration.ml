open Netsim

type request = {
  home : Ipv4_addr.t;
  home_agent : Ipv4_addr.t;
  care_of : Ipv4_addr.t;
  lifetime : int;
  sequence : int;
}

type reply = {
  r_home : Ipv4_addr.t;
  r_care_of : Ipv4_addr.t;
  r_lifetime : int;
  r_sequence : int;
  r_code : Types.reg_code;
}

(* A deterministic keyed digest (FNV-style fold mixed with the key).  Not
   cryptographic; see the interface documentation.  The mix must mask to
   the full 32 bits the wire format carries: masking to 0x7fffffff here
   would pin the top bit to zero and halve the digest keyspace. *)
let mix h byte = (h lxor byte) * 0x01000193 land 0xffffffff

let mix_key h key =
  let h = ref h in
  for i = 0 to String.length key - 1 do
    h := mix !h (Char.code (String.get key i))
  done;
  !h

(* The digest of [buf]'s first [len] bytes, folded in place: encode and
   decode digest a message's body without copying it out. *)
let digest ~key buf len =
  let h = ref (mix_key 0x811c9dc5 key) in
  for i = 0 to len - 1 do
    h := mix !h (Char.code (Bytes.get buf i))
  done;
  mix_key !h key

let authenticator ~key body = digest ~key body (Bytes.length body)

let op_request = 1
let op_reply = 3

let next_sequence s = (s + 1) land 0xffff

let sequence_older a ~than =
  let ahead = (than - a) land 0xffff in
  ahead <> 0 && ahead < 0x8000

(* Request: op(1) home(4) ha(4) coa(4) lifetime(2) seq(2) auth(4) = 21. *)
let request_length = 21

(* Reply: op(1) home(4) coa(4) lifetime(2) seq(2) code(1) auth(4) = 18. *)
let reply_length = 18

let encode_request ~key r =
  let buf = Bytes.make request_length '\000' in
  Bytes.set buf 0 (Char.chr op_request);
  Ipv4_addr.write buf 1 r.home;
  Ipv4_addr.write buf 5 r.home_agent;
  Ipv4_addr.write buf 9 r.care_of;
  Bytes.set_uint16_be buf 13 r.lifetime;
  Bytes.set_uint16_be buf 15 r.sequence;
  Bytes.set_int32_be buf 17 (Int32.of_int (digest ~key buf 17));
  buf

let decode_request ~key buf =
  if Bytes.length buf <> request_length then Error "registration: bad length"
  else if Char.code (Bytes.get buf 0) <> op_request then
    Error "registration: not a request"
  else
    let auth = Int32.to_int (Bytes.get_int32_be buf 17) land 0xffff_ffff in
    if auth <> digest ~key buf 17 then
      Error "registration: authenticator mismatch"
    else
      Ok
        {
          home = Ipv4_addr.read buf 1;
          home_agent = Ipv4_addr.read buf 5;
          care_of = Ipv4_addr.read buf 9;
          lifetime = Bytes.get_uint16_be buf 13;
          sequence = Bytes.get_uint16_be buf 15;
        }

let is_request buf =
  Bytes.length buf = request_length && Char.code (Bytes.get buf 0) = op_request

let is_reply buf =
  Bytes.length buf = reply_length && Char.code (Bytes.get buf 0) = op_reply

let peek_request_home buf =
  if is_request buf then Some (Ipv4_addr.read buf 1) else None
let peek_request_home_agent buf =
  if is_request buf then Some (Ipv4_addr.read buf 5) else None
let peek_reply_home buf =
  if is_reply buf then Some (Ipv4_addr.read buf 1) else None

let encode_reply ~key r =
  let buf = Bytes.make reply_length '\000' in
  Bytes.set buf 0 (Char.chr op_reply);
  Ipv4_addr.write buf 1 r.r_home;
  Ipv4_addr.write buf 5 r.r_care_of;
  Bytes.set_uint16_be buf 9 r.r_lifetime;
  Bytes.set_uint16_be buf 11 r.r_sequence;
  Bytes.set buf 13 (Char.chr (Types.reg_code_to_int r.r_code));
  Bytes.set_int32_be buf 14 (Int32.of_int (digest ~key buf 14));
  buf

let decode_reply ~key buf =
  if Bytes.length buf <> reply_length then Error "registration: bad length"
  else if Char.code (Bytes.get buf 0) <> op_reply then
    Error "registration: not a reply"
  else
    let auth = Int32.to_int (Bytes.get_int32_be buf 14) land 0xffff_ffff in
    if auth <> digest ~key buf 14 then
      Error "registration: authenticator mismatch"
    else
      match Types.reg_code_of_int (Char.code (Bytes.get buf 13)) with
      | None -> Error "registration: unknown code"
      | Some r_code ->
          Ok
            {
              r_home = Ipv4_addr.read buf 1;
              r_care_of = Ipv4_addr.read buf 5;
              r_lifetime = Bytes.get_uint16_be buf 9;
              r_sequence = Bytes.get_uint16_be buf 11;
              r_code;
            }
