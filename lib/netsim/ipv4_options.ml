let lsr_type = 131
let nop = 1

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
  List.iteri (fun i a -> put_addr buf (3 + (4 * i)) a) via;
  buf

(* Scan the options buffer for an LSR option; returns its byte offset. *)
let find_lsr buf =
  let n = Bytes.length buf in
  let rec scan off =
    if off >= n then None
    else
      let ty = Char.code (Bytes.get buf off) in
      if ty = nop then scan (off + 1)
      else if ty = 0 then None (* end of options *)
      else if off + 1 >= n then None
      else
        let len = Char.code (Bytes.get buf (off + 1)) in
        if len < 3 || off + len > n then None
        else if ty = lsr_type then Some (off, len)
        else scan (off + len)
  in
  scan 0

let parse_lsr buf =
  match find_lsr buf with
  | None -> None
  | Some (off, len) ->
      let pointer = Char.code (Bytes.get buf (off + 2)) in
      let count = (len - 3) / 4 in
      let addresses =
        List.init count (fun i -> get_addr buf (off + 3 + (4 * i)))
      in
      (* Pointer is a 1-based byte offset within the option; address k
         (0-based) lives at offset 4+4k. *)
      let index = (pointer - 4) / 4 in
      Some (index, addresses)

let lsr_next_hop buf =
  match parse_lsr buf with
  | Some (index, addresses) when index < List.length addresses ->
      Some (List.nth addresses index)
  | Some _ | None -> None

let advance_lsr buf ~here =
  match find_lsr buf with
  | None -> None
  | Some (off, len) ->
      let pointer = Char.code (Bytes.get buf (off + 2)) in
      if pointer + 3 > len then None (* exhausted *)
      else begin
        let buf' = Bytes.copy buf in
        (* Record the address of the node doing the rewriting where the
           just-consumed hop was, and move the pointer on. *)
        put_addr buf' (off + pointer - 1) here;
        Bytes.set buf' (off + 2) (Char.chr (pointer + 4));
        Some buf'
      end

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

let copied_options buf =
  let n = Bytes.length buf in
  let out = Buffer.create n in
  let rec scan off =
    if off < n then
      let ty = Char.code (Bytes.get buf off) in
      if ty = nop then scan (off + 1)
      else if ty = 0 then ()
      else if off + 1 >= n then ()
      else
        let len = Char.code (Bytes.get buf (off + 1)) in
        if len < 2 || off + len > n then ()
        else begin
          if ty land copied_flag <> 0 then
            Buffer.add_subbytes out buf off len;
          scan (off + len)
        end
  in
  scan 0;
  let kept = Buffer.length out in
  let padded = (kept + 3) / 4 * 4 in
  Buffer.add_string out (String.make (padded - kept) (Char.chr nop));
  Buffer.to_bytes out
