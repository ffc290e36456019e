let lsr_type = 131
let nop = 1

let build_lsr ~via =
  let n = List.length via in
  if n = 0 || n > 9 then
    invalid_arg "Ipv4_options.build_lsr: route must have 1..9 hops";
  let opt_len = 3 + (4 * n) in
  let padded = (opt_len + 3) / 4 * 4 in
  let buf = Bytes.make padded (Char.chr nop) in
  Bytes.set buf 0 (Char.chr lsr_type);
  Bytes.set buf 1 (Char.chr opt_len);
  Bytes.set buf 2 (Char.chr 4) (* pointer: first address, 1-based *);
  List.iteri (fun i a -> Ipv4_addr.write buf (3 + (4 * i)) a) via;
  buf

(* RFC 791's option walk, for [find_lsr] and [copied_options]: the
   offset of the next option at or after [off] that has a length byte
   (all but NOP and end-of-list), or -1 at end-of-list, at a length
   below 2, or at an option that runs past the buffer. *)
let rec next_option buf off =
  if off >= Bytes.length buf then -1
  else
    let ty = Bytes.get_uint8 buf off in
    if ty = nop then next_option buf (off + 1)
    else if ty = 0 || off + 1 >= Bytes.length buf then -1
    else
      let len = Bytes.get_uint8 buf (off + 1) in
      if len < 2 || off + len > Bytes.length buf then -1 else off

let option_length buf off = Bytes.get_uint8 buf (off + 1)

(* The offset of the first LSR option the walk reaches, or -1. *)
let rec find_lsr buf off =
  let off = next_option buf off in
  if off < 0 || Bytes.get_uint8 buf off = lsr_type then off
  else find_lsr buf (off + option_length buf off)

(* The LSR option's offset, length and pointer, if its pointer is
   well-formed.  The pointer is the 1-based offset within the option of
   the next address to visit: address k (0-based) lives at offset 4+4k,
   so RFC 791's pointer starts at 4 and moves in steps of 4.  Any other
   pointer, or an option too short to hold one, leaves it without a
   route. *)
let find_route buf =
  let off = find_lsr buf 0 in
  if off < 0 then None
  else
    let len = option_length buf off in
    let pointer = if len < 3 then 0 else Bytes.get_uint8 buf (off + 2) in
    if pointer < 4 || pointer land 3 <> 0 then None
    else Some (off, len, pointer)

let parse_lsr buf =
  match find_route buf with
  | None -> None
  | Some (off, len, pointer) ->
      let addresses =
        List.init ((len - 3) / 4) (fun i ->
            Ipv4_addr.read buf (off + 3 + (4 * i)))
      in
      Some ((pointer - 4) / 4, addresses)

let lsr_next_hop buf =
  match find_route buf with
  | Some (off, len, pointer) when pointer + 3 <= len ->
      Some (Ipv4_addr.read buf (off + pointer - 1))
  | Some _ (* exhausted *) | None -> None

let advance_lsr buf ~here =
  match find_route buf with
  | Some (off, len, pointer) when pointer + 3 <= len ->
      let buf' = Bytes.copy buf in
      (* Record the address of the node doing the rewriting where the
         just-consumed hop was, and move the pointer on.  Only an option
         longer than any IPv4 header can hold moves it past 255; it then
         wraps to 0, which reads as no route. *)
      Ipv4_addr.write buf' (off + pointer - 1) here;
      Bytes.set_uint8 buf' (off + 2) (pointer + 4);
      Some buf'
  | Some _ (* exhausted *) | None -> None

(* Every router hop asks, so the scan recurses directly: [Bytes.exists]
   would allocate its loop closure on each call. *)
let rec option_from buf i =
  i < Bytes.length buf
  &&
  let c = Char.code (Bytes.unsafe_get buf i) in
  (c <> nop && c <> 0) || option_from buf (i + 1)

let has_options buf = option_from buf 0

(* RFC 791 copy bit: top bit of the option type byte.  Options with it set
   (LSR among them) must be replicated into every fragment; the rest
   travel only in the first fragment. *)
let copied_flag = 0x80

let rec copy_from buf out off =
  let off = next_option buf off in
  if off >= 0 then begin
    let len = option_length buf off in
    if Bytes.get_uint8 buf off land copied_flag <> 0 then
      Buffer.add_subbytes out buf off len;
    copy_from buf out (off + len)
  end

let copied_options buf =
  let out = Buffer.create (Bytes.length buf) in
  copy_from buf out 0;
  let kept = Buffer.length out in
  let padded = (kept + 3) / 4 * 4 in
  Buffer.add_string out (String.make (padded - kept) (Char.chr nop));
  Buffer.to_bytes out
