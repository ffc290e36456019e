let fold_carries sum =
  let rec loop s = if s > 0xffff then loop ((s land 0xffff) + (s lsr 16)) else s in
  loop sum

(* Unaligned, bounds-unchecked native-endian loads (the primitives behind
   [Bytes.get_uint16_ne]/[Bytes.get_int64_ne]).  Only reachable from
   [ones_complement_sum], which validates the whole range once up front. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let swap16 x = ((x land 0xff) lsl 8) lor (x lsr 8)

(* Word-at-a-time summing in native byte order.  The one's complement sum
   is associative modulo 0xffff and byte-order independent (RFC 1071 §2):
   summing the 16-bit words as the host reads them and byte-swapping the
   folded result once yields exactly the network-order sum, because
   swap16(x) = 256*x (mod 0xffff) and multiplication distributes over the
   end-around-carry addition.  OCaml's native int is 63-bit, so the raw
   word sum stays exact for buffers far beyond any packet size before the
   single fold at the end. *)
(* Tail-recursive so the accumulator lives in a register rather than a
   loop-carried store.  Eight bytes per 64-bit read: each read contributes
   its two 32-bit halves, each of which is [lane1 * 2^16 + lane0], and
   2^16 = 1 (mod 0xffff), so the halves fold to the same 16-bit sum. *)
let rec sum_words buf i stop acc =
  if i + 8 <= stop then
    let x = get64u buf i in
    sum_words buf (i + 8) stop
      (acc
      + Int64.to_int (Int64.shift_right_logical x 32)
      + (Int64.to_int x land 0xffffffff))
  else if i + 2 <= stop then sum_words buf (i + 2) stop (acc + get16u buf i)
  else if i < stop then
    (* Trailing odd byte: the high half of a zero-padded big-endian word,
       which in the host's lane order is [b lsl 8] (BE) or plain [b]
       (LE). *)
    let b = Char.code (Bytes.unsafe_get buf i) in
    acc + if Sys.big_endian then b lsl 8 else b
  else acc

let ones_complement_sum ?(initial = 0) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum: range out of bounds";
  let init = if Sys.big_endian then initial else swap16 initial in
  let folded = fold_carries (sum_words buf off (off + len) init) in
  if Sys.big_endian then folded else swap16 folded

let finish sum = lnot (fold_carries sum) land 0xffff

let compute buf = finish (ones_complement_sum buf 0 (Bytes.length buf))
let compute_sub buf off len = finish (ones_complement_sum buf off len)

let address_sum (a : Ipv4_addr.t) =
  let x = (a :> int32) in
  (Int32.to_int (Int32.shift_right_logical x 16) land 0xffff)
  + (Int32.to_int x land 0xffff)

let pseudo_header_sum ~src ~dst ~protocol ~length =
  fold_carries (address_sum src + address_sum dst + protocol + length)

let valid buf =
  fold_carries (ones_complement_sum buf 0 (Bytes.length buf)) = 0xffff
