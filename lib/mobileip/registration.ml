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

let put_u16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get_u16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let put_u32 buf off v =
  put_u16 buf off ((v lsr 16) land 0xffff);
  put_u16 buf (off + 2) (v land 0xffff)

let get_u32 buf off = (get_u16 buf off lsl 16) lor get_u16 buf (off + 2)

let put_addr buf off a = put_u32 buf off (Int32.to_int (Ipv4_addr.to_int32 a) land 0xffffffff)

let get_addr buf off =
  Ipv4_addr.of_int32 (Int32.of_int (get_u32 buf off))

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
  put_addr buf 1 r.home;
  put_addr buf 5 r.home_agent;
  put_addr buf 9 r.care_of;
  put_u16 buf 13 r.lifetime;
  put_u16 buf 15 r.sequence;
  let auth = digest ~key buf 17 in
  put_u32 buf 17 auth;
  buf

let decode_request ~key buf =
  if Bytes.length buf <> request_length then Error "registration: bad length"
  else if Char.code (Bytes.get buf 0) <> op_request then
    Error "registration: not a request"
  else
    let auth = get_u32 buf 17 in
    if auth <> digest ~key buf 17 then
      Error "registration: authenticator mismatch"
    else
      Ok
        {
          home = get_addr buf 1;
          home_agent = get_addr buf 5;
          care_of = get_addr buf 9;
          lifetime = get_u16 buf 13;
          sequence = get_u16 buf 15;
        }

let is_request buf =
  Bytes.length buf = request_length && Char.code (Bytes.get buf 0) = op_request

let is_reply buf =
  Bytes.length buf = reply_length && Char.code (Bytes.get buf 0) = op_reply

let peek_request_home buf = if is_request buf then Some (get_addr buf 1) else None
let peek_request_home_agent buf =
  if is_request buf then Some (get_addr buf 5) else None
let peek_reply_home buf = if is_reply buf then Some (get_addr buf 1) else None

let encode_reply ~key r =
  let buf = Bytes.make reply_length '\000' in
  Bytes.set buf 0 (Char.chr op_reply);
  put_addr buf 1 r.r_home;
  put_addr buf 5 r.r_care_of;
  put_u16 buf 9 r.r_lifetime;
  put_u16 buf 11 r.r_sequence;
  Bytes.set buf 13 (Char.chr (Types.reg_code_to_int r.r_code));
  let auth = digest ~key buf 14 in
  put_u32 buf 14 auth;
  buf

let decode_reply ~key buf =
  if Bytes.length buf <> reply_length then Error "registration: bad length"
  else if Char.code (Bytes.get buf 0) <> op_reply then
    Error "registration: not a reply"
  else
    let auth = get_u32 buf 14 in
    if auth <> digest ~key buf 14 then
      Error "registration: authenticator mismatch"
    else
      match Types.reg_code_of_int (Char.code (Bytes.get buf 13)) with
      | None -> Error "registration: unknown code"
      | Some r_code ->
          Ok
            {
              r_home = get_addr buf 1;
              r_care_of = get_addr buf 5;
              r_lifetime = get_u16 buf 9;
              r_sequence = get_u16 buf 11;
              r_code;
            }

let pp_request fmt r =
  Format.fprintf fmt "reg-request home=%a ha=%a coa=%a life=%ds seq=%d"
    Ipv4_addr.pp r.home Ipv4_addr.pp r.home_agent Ipv4_addr.pp r.care_of
    r.lifetime r.sequence

let pp_reply fmt r =
  Format.fprintf fmt "reg-reply home=%a coa=%a life=%ds seq=%d %a" Ipv4_addr.pp
    r.r_home Ipv4_addr.pp r.r_care_of r.r_lifetime r.r_sequence
    Types.pp_reg_code r.r_code
