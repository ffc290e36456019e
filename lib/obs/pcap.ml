(* Classic libpcap container (the original tcpdump format, not pcapng),
   LINKTYPE_RAW: each record's payload is a bare IPv4 datagram with no
   link-layer framing — exactly what the simulator has, and something
   tcpdump/Wireshark open directly.

   Capture times are the simulation clock.  Every byte is written
   little-endian regardless of host, so captures (and the golden-bytes
   test) are identical everywhere. *)

let magic = 0xa1b2c3d4
let version_major = 2
let version_minor = 4
let snaplen = 0xffff
let linktype_raw = 101
let global_header_length = 24
let record_header_length = 16

let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let file_header () =
  let b = Bytes.make global_header_length '\000' in
  set_u32 b 0 magic;
  set_u16 b 4 version_major;
  set_u16 b 6 version_minor;
  (* thiszone and sigfigs stay zero *)
  set_u32 b 16 snaplen;
  set_u32 b 20 linktype_raw;
  b

let record_header ~time ~len =
  let b = Bytes.make record_header_length '\000' in
  let sec = int_of_float time in
  let usec = int_of_float (((time -. float_of_int sec) *. 1e6) +. 0.5) in
  let sec, usec = if usec >= 1_000_000 then (sec + 1, 0) else (sec, usec) in
  set_u32 b 0 sec;
  set_u32 b 4 usec;
  set_u32 b 8 len;
  set_u32 b 12 len;
  b

let write_header oc = output_bytes oc (file_header ())

let append_packet oc ~time payload =
  output_bytes oc (record_header ~time ~len:(Bytes.length payload));
  output_bytes oc payload

(* One pcap packet per [Transmit] event — one per link traversal, the
   wire's point of view (a forwarded datagram appears once per hop, like
   capturing on every link at once).  Other event kinds are not wire
   occurrences and are skipped. *)
let packet_of_record (r : Netsim.Trace.record) =
  match r.event with
  | Netsim.Trace.Transmit { frame; _ } ->
      Some (r.time, Netsim.Ipv4_packet.encode frame.pkt)
  | _ -> None

let sink_to_channel oc (r : Netsim.Trace.record) =
  match packet_of_record r with
  | Some (time, payload) -> append_packet oc ~time payload
  | None -> ()

let write_records oc records =
  write_header oc;
  List.fold_left
    (fun n r ->
      match packet_of_record r with
      | Some (time, payload) ->
          append_packet oc ~time payload;
          n + 1
      | None -> n)
    0 records

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_records oc records)

(* ---- reader (for tests and round-trip checks) ---- *)

let get_u16 b off = Bytes.get_uint16_le b off
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let really_read ic len =
  let b = Bytes.create len in
  really_input ic b 0 len;
  b

(* libpcap's own ceiling on a record's captured length (its
   MAXIMUM_SNAPLEN), so a header claiming a larger snaplen cannot make
   the reader allocate more. *)
let max_snaplen = 262_144

let read_channel ic =
  match really_read ic global_header_length with
  | exception End_of_file -> Error "pcap: truncated file header"
  | h ->
      if get_u32 h 0 <> magic then Error "pcap: bad magic (not LE classic pcap)"
      else if get_u16 h 4 <> version_major || get_u16 h 6 <> version_minor then
        Error "pcap: unsupported version"
      else if get_u32 h 20 <> linktype_raw then
        Error "pcap: unexpected linktype (want LINKTYPE_RAW)"
      else begin
        let limit = min (get_u32 h 16) max_snaplen in
        let packets = ref [] in
        let rec loop () =
          match really_read ic record_header_length with
          | exception End_of_file -> Ok (List.rev !packets)
          | rh -> (
              let sec = get_u32 rh 0 in
              let usec = get_u32 rh 4 in
              let incl = get_u32 rh 8 in
              (* The length comes from the file: check it before it sizes
                 an allocation. *)
              if incl > limit then
                Error
                  (Printf.sprintf
                     "pcap: packet record of %d bytes exceeds the snapshot \
                      length %d"
                     incl limit)
              else
                match really_read ic incl with
                | exception End_of_file -> Error "pcap: truncated packet record"
                | payload ->
                    let time =
                      float_of_int sec +. (float_of_int usec /. 1e6)
                    in
                    packets := (time, payload) :: !packets;
                    loop ())
        in
        loop ()
      end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
