open Netsim

(* Wire format (compact stand-in for RFC 1541):
   REQUEST: byte 0 = 1, bytes 1..6 = client MAC.
   ACK:     byte 0 = 2, bytes 1..6 = client MAC, 7..10 = leased address,
            byte 11 = prefix bits, 12..15 = gateway, 16..17 = lease time. *)

let op_request = 1
let op_ack = 2

module Server = struct
  let lease_time = 3600

  type t = {
    pool : Ipv4_addr.Prefix.t;
    last_host : int;
    gateway : Ipv4_addr.t;
    mutable next : int;
    mutable lease_table : (Mac_addr.t * Ipv4_addr.t) list;
  }

  let handle t udp (dgram : Udp_service.datagram) =
    if
      Bytes.length dgram.Udp_service.payload >= 7
      && Char.code (Bytes.get dgram.Udp_service.payload 0) = op_request
    then begin
      let mac = Mac_addr.read dgram.Udp_service.payload 1 in
      let addr =
        match List.assoc_opt mac t.lease_table with
        | Some a -> Some a
        | None ->
            if t.next > t.last_host then None
            else begin
              let a = Ipv4_addr.Prefix.host t.pool t.next in
              t.next <- t.next + 1;
              t.lease_table <- (mac, a) :: t.lease_table;
              Some a
            end
      in
      match addr with
      | None -> () (* pool exhausted: stay silent *)
      | Some a ->
          let reply = Bytes.make 18 '\000' in
          Bytes.set reply 0 (Char.chr op_ack);
          Mac_addr.write reply 1 mac;
          Ipv4_addr.write reply 7 a;
          Bytes.set reply 11 (Char.chr (Ipv4_addr.Prefix.bits t.pool));
          Ipv4_addr.write reply 12 t.gateway;
          Bytes.set_uint16_be reply 16 lease_time;
          let via = dgram.Udp_service.in_iface in
          ignore
            (Udp_service.send udp ?via ~src:t.gateway
               ~dst:Ipv4_addr.broadcast ~src_port:Well_known.dhcp_server
               ~dst_port:Well_known.dhcp_client reply)
    end

  let create node ~pool ~first_host ~last_host ~gateway () =
    let t =
      { pool; last_host; gateway; next = first_host; lease_table = [] }
    in
    let udp = Udp_service.get node in
    Udp_service.listen udp ~port:Well_known.dhcp_server (fun svc dgram ->
        handle t svc dgram);
    t

  let outstanding t = List.length t.lease_table
end

module Client = struct
  type offer = {
    addr : Ipv4_addr.t;
    prefix : Ipv4_addr.Prefix.t;
    gateway : Ipv4_addr.t;
    lease_time : int;
  }

  let max_attempts = 5

  let request node ~via callback =
    let mac =
      match Net.iface_mac via with
      | Some m -> m
      | None -> invalid_arg "Dhcp.Client.request: not an Ethernet interface"
    in
    let udp = Udp_service.get node in
    let answered = ref false in
    Udp_service.listen udp ~port:Well_known.dhcp_client (fun svc dgram ->
        let payload = dgram.Udp_service.payload in
        (* An ACK for another client, or with a prefix length no address
           has, is not an answer: keep retransmitting. *)
        if
          Bytes.length payload >= 18
          && Char.code (Bytes.get payload 0) = op_ack
          && Mac_addr.equal (Mac_addr.read payload 1) mac
          && Char.code (Bytes.get payload 11) <= 32
          && not !answered
        then begin
          answered := true;
          Udp_service.unlisten svc ~port:Well_known.dhcp_client;
          let addr = Ipv4_addr.read payload 7 in
          callback
            {
              addr;
              prefix =
                Ipv4_addr.Prefix.make addr (Char.code (Bytes.get payload 11));
              gateway = Ipv4_addr.read payload 12;
              lease_time = Bytes.get_uint16_be payload 16;
            }
        end);
    let req = Bytes.make 7 '\000' in
    Bytes.set req 0 (Char.chr op_request);
    Mac_addr.write req 1 mac;
    (* Broadcast requests may be lost on lossy media: retransmit with the
       classic 1-second DHCP backoff until answered. *)
    let eng = Net.node_engine node in
    let rec attempt n =
      if (not !answered) && n < max_attempts then begin
        ignore
          (Udp_service.send udp ~via ~src:Ipv4_addr.any
             ~dst:Ipv4_addr.broadcast ~src_port:Well_known.dhcp_client
             ~dst_port:Well_known.dhcp_server req);
        Engine.after eng 1.0 (fun () -> attempt (n + 1))
      end
    in
    attempt 0
end
