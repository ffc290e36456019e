type t = int32

let of_int32 x = x
let to_int32 x = x

let of_octets a b c d =
  let check n =
    if n < 0 || n > 255 then
      invalid_arg (Printf.sprintf "Ipv4_addr.of_octets: octet %d out of range" n)
  in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let to_octets x =
  let u = Int32.to_int (Int32.shift_right_logical x 24) land 0xff in
  let b = Int32.to_int (Int32.shift_right_logical x 16) land 0xff in
  let c = Int32.to_int (Int32.shift_right_logical x 8) land 0xff in
  let d = Int32.to_int x land 0xff in
  (u, b, c, d)

let read buf off = Bytes.get_int32_be buf off
let write buf off x = Bytes.set_int32_be buf off x

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some n when n >= 0 && n <= 255 && String.length x <= 3 -> Some n
        | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4_addr.of_string: %S" s)

let to_string x =
  let a, b, c, d = to_octets x in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let compare (a : t) (b : t) =
  (* Unsigned 32-bit comparison: flip the sign bit. *)
  Int32.unsigned_compare a b

let equal (a : t) (b : t) = Int32.equal a b
let pp fmt x = Format.pp_print_string fmt (to_string x)
let any = 0l
let broadcast = 0xffffffffl
let localhost = of_octets 127 0 0 1

let is_multicast x =
  Int32.equal (Int32.logand x 0xf0000000l) 0xe0000000l

let is_loopback x = Int32.equal (Int32.logand x 0xff000000l) 0x7f000000l
let succ x = Int32.add x 1l

module Prefix = struct
  type addr = t

  type t = { network : addr; bits : int }

  let mask_of_bits bits =
    if bits = 0 then 0l
    else Int32.shift_left (-1l) (32 - bits)

  let make network bits =
    if bits < 0 || bits > 32 then
      invalid_arg (Printf.sprintf "Prefix.make: bad mask length %d" bits);
    { network = Int32.logand network (mask_of_bits bits); bits }

  let of_string_opt s =
    match String.index_opt s '/' with
    | None -> None
    | Some i -> (
        let addr = String.sub s 0 i in
        let len = String.sub s (i + 1) (String.length s - i - 1) in
        match (of_string_opt addr, int_of_string_opt len) with
        | Some a, Some b when b >= 0 && b <= 32 -> Some (make a b)
        | _ -> None)

  let of_string s =
    match of_string_opt s with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

  let to_string p = Printf.sprintf "%s/%d" (to_string p.network) p.bits
  let network p = p.network
  let bits p = p.bits
  let netmask p = mask_of_bits p.bits

  let mem a p =
    Int32.equal (Int32.logand a (mask_of_bits p.bits)) p.network

  let subset sub super = sub.bits >= super.bits && mem sub.network super

  let host p n =
    let host_bits = 32 - p.bits in
    let capacity = if host_bits >= 31 then max_int else (1 lsl host_bits) - 1 in
    if n < 0 || n > capacity then
      invalid_arg (Printf.sprintf "Prefix.host: %d outside %s" n (to_string p));
    Int32.logor p.network (Int32.of_int n)

  let broadcast_addr p =
    Int32.logor p.network (Int32.lognot (mask_of_bits p.bits))

  let compare a b =
    match Int32.unsigned_compare a.network b.network with
    | 0 -> Int.compare a.bits b.bits
    | c -> c

  let equal a b = compare a b = 0
  let global = { network = 0l; bits = 0 }
end
