(** libpcap export: trace captures tcpdump/Wireshark can open.

    Classic pcap (magic [0xa1b2c3d4], version 2.4) with LINKTYPE_RAW
    (101): each packet record is a bare IPv4 datagram as
    {!Netsim.Ipv4_packet.encode} lays it on the wire — checksums, options
    and encapsulation headers included.  One pcap packet is written per
    {!Netsim.Trace.Transmit} event, i.e. one per link traversal: the
    capture reads like tcpdump running on every link at once.  Other
    event kinds are not wire occurrences and are skipped.

    Timestamps carry the {e simulation} clock.  All multi-byte fields are
    written little-endian on every host, so output is byte-for-byte
    deterministic. *)

val file_header : unit -> Bytes.t
(** The 24-byte global header. *)

val record_header : time:float -> len:int -> Bytes.t
(** A 16-byte per-packet header ([incl_len = orig_len = len]). *)

val write_header : out_channel -> unit

val append_packet : out_channel -> time:float -> Bytes.t -> unit
(** Write one packet record (header + payload). *)

val packet_of_record : Netsim.Trace.record -> (float * Bytes.t) option
(** [Some (time, wire_bytes)] for a [Transmit] record, [None] otherwise. *)

val sink_to_channel : out_channel -> Netsim.Trace.record -> unit
(** Append a [Transmit] record as a pcap packet, as it happens: an
    observer for {!Netsim.Trace.add_observer}, or a tap for
    {!Netsim.Net.with_tap}.  The caller writes the file header first
    ({!write_header}) and owns the channel. *)

val write_file : string -> Netsim.Trace.record list -> int
(** Write the file header and then every [Transmit] record, as
    {!packet_of_record} frames it, to a fresh binary file; returns the
    number of packets written. *)

val read_file : string -> ((float * Bytes.t) list, string) result
(** Parse a capture this module wrote: [(timestamp, payload)] per packet,
    in file order.  Rejects foreign magic, versions and linktypes, and a
    packet record longer than the file header's snapshot length (or
    libpcap's 262 144-byte ceiling) before reading it. *)
