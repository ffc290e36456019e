open Netsim

(* Wire format (compact stand-in for RFC 1541):
   REQUEST: byte 0 = 1, bytes 1..6 = client MAC.
   ACK:     byte 0 = 2, bytes 1..6 = client MAC, 7..10 = leased address,
            byte 11 = prefix bits, 12..15 = gateway, 16..17 = lease time. *)

let op_request = 1
let op_ack = 2

let put_mac buf off mac =
  let x = Mac_addr.to_int mac in
  for i = 0 to 5 do
    Bytes.set buf (off + i) (Char.chr ((x lsr ((5 - i) * 8)) land 0xff))
  done

let get_mac buf off =
  let x = ref 0 in
  for i = 0 to 5 do
    x := (!x lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  Mac_addr.of_int !x

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

module Server = struct
  let lease_time = 3600

  type t = {
    pool : Ipv4_addr.Prefix.t;
    first_host : int;
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
      let mac = get_mac dgram.Udp_service.payload 1 in
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
          put_mac reply 1 mac;
          put_addr reply 7 a;
          Bytes.set reply 11 (Char.chr (Ipv4_addr.Prefix.bits t.pool));
          put_addr reply 12 t.gateway;
          Bytes.set reply 16 (Char.chr ((lease_time lsr 8) land 0xff));
          Bytes.set reply 17 (Char.chr (lease_time land 0xff));
          let via = dgram.Udp_service.in_iface in
          ignore
            (Udp_service.send udp ?via ~src:t.gateway
               ~dst:Ipv4_addr.broadcast ~src_port:Well_known.dhcp_server
               ~dst_port:Well_known.dhcp_client reply)
    end

  let create node ~pool ~first_host ~last_host ~gateway () =
    let t =
      {
        pool;
        first_host;
        last_host;
        gateway;
        next = first_host;
        lease_table = [];
      }
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
        if
          Bytes.length payload >= 18
          && Char.code (Bytes.get payload 0) = op_ack
          && Mac_addr.equal (get_mac payload 1) mac
          && not !answered
        then begin
          answered := true;
          Udp_service.unlisten svc ~port:Well_known.dhcp_client;
          let addr = get_addr payload 7 in
          let bits = Char.code (Bytes.get payload 11) in
          let gateway = get_addr payload 12 in
          let lease_time =
            (Char.code (Bytes.get payload 16) lsl 8)
            lor Char.code (Bytes.get payload 17)
          in
          callback
            {
              addr;
              prefix = Ipv4_addr.Prefix.make addr bits;
              gateway;
              lease_time;
            }
        end);
    let req = Bytes.make 7 '\000' in
    Bytes.set req 0 (Char.chr op_request);
    put_mac req 1 mac;
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
