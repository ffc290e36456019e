type error = Dont_fragment | Header_too_big

let pp_error fmt = function
  | Dont_fragment -> Format.pp_print_string fmt "dont-fragment bit set"
  | Header_too_big -> Format.pp_print_string fmt "mtu smaller than header"

let fragment ~mtu pkt =
  if Ipv4_packet.byte_length pkt <= mtu then Ok [ pkt ]
  else if pkt.Ipv4_packet.dont_fragment then Error Dont_fragment
  else
    let hlen = Ipv4_packet.header_length pkt in
    (* Payload bytes per fragment, rounded down to a multiple of 8. *)
    let chunk = (mtu - hlen) / 8 * 8 in
    if chunk <= 0 then Error Header_too_big
    else begin
      let body =
        match pkt.Ipv4_packet.payload with
        | Ipv4_packet.Raw b -> b
        | _ ->
            (* Encode the structured payload once; fragments carry slices. *)
            let whole = Ipv4_packet.encode pkt in
            Bytes.sub whole hlen (Bytes.length whole - hlen)
      in
      let total = Bytes.length body in
      let base_offset = pkt.Ipv4_packet.frag_offset in
      let last_has_more = pkt.Ipv4_packet.more_fragments in
      (* Only copy-bit options are replicated past the first fragment
         (RFC 791); the receiver's reassembly restores the full set from
         the offset-0 fragment's header. *)
      let tail_options = Ipv4_options.copied_options pkt.Ipv4_packet.options in
      let rec slices off acc =
        if off >= total then List.rev acc
        else begin
          let len = min chunk (total - off) in
          let is_last = off + len >= total in
          let frag =
            {
              pkt with
              Ipv4_packet.payload = Ipv4_packet.Raw (Bytes.sub body off len);
              more_fragments = (if is_last then last_has_more else true);
              frag_offset = base_offset + (off / 8);
              options =
                (if off = 0 then pkt.Ipv4_packet.options else tail_options);
            }
          in
          slices (off + len) (frag :: acc)
        end
      in
      Ok (slices 0 [])
    end

module Reassembly = struct
  (* Source, destination, protocol number and identification: the fields
     that name a datagram (RFC 791). *)
  type key = Ipv4_addr.t * Ipv4_addr.t * int * int

  type datagram = {
    mutable pieces : (int * Bytes.t) list;  (* byte offset, data *)
    mutable total : int option;  (* known once the last fragment arrives *)
    first_seen : float;
    mutable template : Ipv4_packet.t;  (* header fields from offset 0 *)
  }

  (* The table is allocated at the first fragment: most nodes never
     reassemble anything.  [oldest] is at most the [first_seen] of every
     buffered datagram ([infinity] when none is), so a fragment checks for
     stale datagrams with one comparison and scans only when one may have
     timed out. *)
  type t = {
    mutable table : (key, datagram) Hashtbl.t option;
    mutable oldest : float;
  }

  (* RFC 1122 §3.3.2: a fixed reassembly timeout, recommended between 60
     and 120 seconds. *)
  let timeout = 60.0

  let create () = { table = None; oldest = infinity }

  let key_of (p : Ipv4_packet.t) : key =
    (p.src, p.dst, Ipv4_packet.protocol_to_int p.protocol, p.ident)

  let complete d =
    match d.total with
    | None -> None
    | Some total ->
        let sorted =
          List.sort (fun (a, _) (b, _) -> Int.compare a b) d.pieces
        in
        let buf = Bytes.create total in
        let covered =
          List.fold_left
            (fun pos (off, data) ->
              if off > pos then -1 (* hole *)
              else begin
                let len = Bytes.length data in
                let copy_len = min len (total - off) in
                if copy_len > 0 then Bytes.blit data 0 buf off copy_len;
                max pos (off + copy_len)
              end)
            0 sorted
        in
        if covered = total then Some buf else None

  let expire t ~older_than =
    match t.table with
    | None -> 0
    | Some table ->
        let stale =
          Hashtbl.fold
            (fun k d acc -> if d.first_seen < older_than then k :: acc else acc)
            table []
        in
        List.iter (Hashtbl.remove table) stale;
        t.oldest <-
          Hashtbl.fold (fun _ d m -> Float.min d.first_seen m) table infinity;
        List.length stale

  let add t ~now (p : Ipv4_packet.t) =
    if not (Ipv4_packet.is_fragment p) then Some p
    else begin
      let body =
        match p.payload with
        | Ipv4_packet.Raw b -> b
        | _ ->
            let whole = Ipv4_packet.encode p in
            let hlen = Ipv4_packet.header_length p in
            Bytes.sub whole hlen (Bytes.length whole - hlen)
      in
      let table =
        match t.table with
        | Some table -> table
        | None ->
            let table = Hashtbl.create 16 in
            t.table <- Some table;
            table
      in
      if t.oldest < now -. timeout then
        ignore (expire t ~older_than:(now -. timeout));
      let k = key_of p in
      let d =
        match Hashtbl.find_opt table k with
        | Some d -> d
        | None ->
            let d =
              { pieces = []; total = None; first_seen = now; template = p }
            in
            if Hashtbl.length table = 0 then t.oldest <- now;
            Hashtbl.add table k d;
            d
      in
      let off = p.frag_offset * 8 in
      d.pieces <- (off, body) :: d.pieces;
      if p.frag_offset = 0 then d.template <- p;
      if not p.more_fragments then d.total <- Some (off + Bytes.length body);
      match complete d with
      | None -> None
      | Some buf ->
          Hashtbl.remove table k;
          if Hashtbl.length table = 0 then t.oldest <- infinity;
          let whole =
            {
              d.template with
              Ipv4_packet.payload = Ipv4_packet.Raw buf;
              more_fragments = false;
              frag_offset = 0;
            }
          in
          Some (Ipv4_packet.reparse_payload whole)
    end

  let pending t =
    match t.table with None -> 0 | Some table -> Hashtbl.length table
end
