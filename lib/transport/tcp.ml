open Netsim

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Closed
  | Aborted

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Syn_sent -> "syn-sent"
    | Syn_received -> "syn-received"
    | Established -> "established"
    | Fin_wait -> "fin-wait"
    | Close_wait -> "close-wait"
    | Last_ack -> "last-ack"
    | Closed -> "closed"
    | Aborted -> "aborted")

type feedback =
  | Segment_sent of { peer : Ipv4_addr.t; retransmission : bool }
  | Segment_received of { peer : Ipv4_addr.t; retransmission : bool }

let max_retries = 6
let initial_rto = 1.0
let default_mss = 536

type inflight = {
  seg_seq : int;
  seg_len : int;  (* sequence space consumed: data bytes + SYN/FIN *)
  seg_data : Bytes.t;
  seg_syn : bool;
  seg_fin : bool;
}

type conn = {
  stack : t;
  mutable st : state;
  local_addr : Ipv4_addr.t;
  local_port : int;
  remote_addr : Ipv4_addr.t;
  remote_port : int;
  mss : int;
  window : int;  (* max segments in flight (go-back-N); 1 = stop-and-wait *)
  mutable snd_nxt : int;  (* next sequence number to allocate *)
  mutable rcv_nxt : int;
  send_queue : Bytes.t Queue.t;  (* writes not yet fully sent, oldest first *)
  mutable send_off : int;  (* bytes of the head write already sent *)
  mutable fin_pending : bool;
  mutable inflight : inflight list;  (* oldest first *)
  mutable rto : float;
  mutable retries : int;
  mutable total_retx : int;
  mutable delivered : int;
  mutable recv_cb : (Bytes.t -> unit) option;
  mutable state_cb : (state -> unit) option;
  mutable cancel_timer : (unit -> unit) option;
}

and t = {
  tcp_node : Net.node;
  mutable conns : conn list;  (* live connections: not Closed or Aborted *)
  listeners : (int, int * (conn -> unit)) Hashtbl.t;  (* window, accept *)
  mutable next_iss : int;
  mutable next_port : int;
  mutable feedback_cb : (feedback -> unit) option;
  mutable retx_aborts : int;
      (* connections that died because the retransmission limit was
         exhausted — "gave up", as opposed to recovered or reset *)
}

let key : t Net.key = Net.new_key ()

let set_feedback t f = t.feedback_cb <- f
let listen t ?(window = 1) ~port cb = Hashtbl.replace t.listeners port (window, cb)
let unlisten t ~port = Hashtbl.remove t.listeners port
let state c = c.st
let remote_endpoint c = (c.remote_addr, c.remote_port)
let retransmissions c = c.total_retx
let bytes_delivered c = c.delivered
let retx_aborts t = t.retx_aborts
let on_receive c f = c.recv_cb <- Some f
let on_state_change c f = c.state_cb <- Some f

let feedback t ev = match t.feedback_cb with Some f -> f ev | None -> ()

let set_state c st =
  if c.st <> st then begin
    c.st <- st;
    if st = Closed || st = Aborted then
      c.stack.conns <- List.filter (fun c' -> c' != c) c.stack.conns;
    match c.state_cb with Some f -> f st | None -> ()
  end

let stop_timer c =
  (match c.cancel_timer with Some cancel -> cancel () | None -> ());
  c.cancel_timer <- None

let send_pkt c (tw : Tcp_wire.t) =
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_tcp ~src:c.local_addr
      ~dst:c.remote_addr (Ipv4_packet.Tcp tw)
  in
  ignore (Net.send c.stack.tcp_node pkt)

let transmit_segment c ~retransmission seg =
  let with_ack = not (seg.seg_syn && c.st = Syn_sent) in
  let flags =
    {
      Tcp_wire.syn = seg.seg_syn;
      ack = with_ack;
      fin = seg.seg_fin;
      rst = false;
      psh = Bytes.length seg.seg_data > 0;
      urg = false;
    }
  in
  let ack_n = if with_ack then c.rcv_nxt else 0 in
  let tw =
    Tcp_wire.make ~src_port:c.local_port ~dst_port:c.remote_port
      ~seq:seg.seg_seq ~ack_n ~flags seg.seg_data
  in
  feedback c.stack (Segment_sent { peer = c.remote_addr; retransmission });
  send_pkt c tw

let send_bare_ack c =
  let tw =
    Tcp_wire.make ~src_port:c.local_port ~dst_port:c.remote_port ~seq:c.snd_nxt
      ~ack_n:c.rcv_nxt ~flags:Tcp_wire.flag_ack Bytes.empty
  in
  send_pkt c tw

let send_rst stack ~src ~dst ~src_port ~dst_port ~seq ~ack_n =
  let tw =
    Tcp_wire.make ~src_port ~dst_port ~seq ~ack_n ~flags:Tcp_wire.flag_rst
      Bytes.empty
  in
  let pkt =
    Ipv4_packet.make ~protocol:Ipv4_packet.P_tcp ~src ~dst (Ipv4_packet.Tcp tw)
  in
  ignore (Net.send stack.tcp_node pkt)

let rec arm_timer c =
  stop_timer c;
  let eng = Net.node_engine c.stack.tcp_node in
  c.cancel_timer <- Some (Engine.cancellable_after eng c.rto (fun () -> on_timeout c))

and on_timeout c =
  match c.inflight with
  | [] -> ()
  | segs ->
      if c.retries >= max_retries then begin
        stop_timer c;
        c.inflight <- [];
        c.stack.retx_aborts <- c.stack.retx_aborts + 1;
        set_state c Aborted
      end
      else begin
        (* Go-back-N: resend every unacknowledged segment, oldest first. *)
        c.retries <- c.retries + 1;
        c.total_retx <- c.total_retx + List.length segs;
        c.rto <- c.rto *. 2.0;
        List.iter (transmit_segment c ~retransmission:true) segs;
        arm_timer c
      end

(* Fill the window with data segments from the queue; a FIN goes out once
   everything else is acknowledged.  Data never flows before the handshake
   completes (the peer's application has not accepted the connection
   yet). *)
let rec pump c =
  if
    (match c.st with
    | Established | Close_wait | Fin_wait | Last_ack -> true
    | Syn_sent | Syn_received | Closed | Aborted -> false)
    && List.length c.inflight < c.window
  then begin
    match Queue.peek_opt c.send_queue with
    | Some data ->
        (* Copy only the chunk sent; a whole write that fits goes as is. *)
        let len = min c.mss (Bytes.length data - c.send_off) in
        let chunk =
          if len = Bytes.length data then data else Bytes.sub data c.send_off len
        in
        if c.send_off + len = Bytes.length data then begin
          ignore (Queue.take c.send_queue);
          c.send_off <- 0
        end
        else c.send_off <- c.send_off + len;
        let seg =
          {
            seg_seq = c.snd_nxt;
            seg_len = Bytes.length chunk;
            seg_data = chunk;
            seg_syn = false;
            seg_fin = false;
          }
        in
        c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt seg.seg_len;
        let was_idle = c.inflight = [] in
        c.inflight <- c.inflight @ [ seg ];
        if was_idle then begin
          c.retries <- 0;
          c.rto <- initial_rto
        end;
        transmit_segment c ~retransmission:false seg;
        if was_idle then arm_timer c;
        pump c
    | None ->
        if c.fin_pending && c.inflight = [] then begin
          c.fin_pending <- false;
          let seg =
            {
              seg_seq = c.snd_nxt;
              seg_len = 1;
              seg_data = Bytes.empty;
              seg_syn = false;
              seg_fin = true;
            }
          in
          c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
          c.inflight <- [ seg ];
          c.retries <- 0;
          c.rto <- initial_rto;
          transmit_segment c ~retransmission:false seg;
          arm_timer c;
          set_state c (if c.st = Close_wait then Last_ack else Fin_wait)
        end
  end

and handle_ack c ack_n =
  (* Cumulative acknowledgement: drop the fully-acknowledged prefix. *)
  let acked, remaining =
    List.partition
      (fun seg ->
        Tcp_wire.seq_leq (Tcp_wire.seq_add seg.seg_seq seg.seg_len) ack_n)
      c.inflight
  in
  if acked <> [] then begin
    c.inflight <- remaining;
    c.retries <- 0;
    c.rto <- initial_rto;
    stop_timer c;
    if remaining <> [] then arm_timer c;
    if List.exists (fun seg -> seg.seg_syn) acked then (
      match c.st with
      | Syn_sent | Syn_received -> set_state c Established
      | Established | Fin_wait | Close_wait | Last_ack | Closed | Aborted ->
          ());
    if List.exists (fun seg -> seg.seg_fin) acked then (
      match c.st with
      | Last_ack -> set_state c Closed
      | Fin_wait
      (* our FIN is acknowledged; wait for the peer's FIN *)
      | Syn_sent | Syn_received | Established | Close_wait | Closed | Aborted
        ->
          ());
    pump c
  end

let segment_input c (tw : Tcp_wire.t) =
  let stack = c.stack in
  let flags = tw.Tcp_wire.flags in
  if flags.Tcp_wire.rst then begin
    stop_timer c;
    c.inflight <- [];
    set_state c Aborted
  end
  else if flags.Tcp_wire.syn then begin
    (* SYN or SYN-ACK: learn (or re-learn) the peer's initial sequence. *)
    let isn_next = Tcp_wire.seq_add tw.Tcp_wire.seq 1 in
    if c.rcv_nxt = isn_next then begin
      (* Retransmitted SYN/SYN-ACK: the peer did not get our answer. *)
      feedback stack
        (Segment_received { peer = c.remote_addr; retransmission = true });
      if flags.Tcp_wire.ack then handle_ack c tw.Tcp_wire.ack_n;
      send_bare_ack c
    end
    else begin
      c.rcv_nxt <- isn_next;
      feedback stack
        (Segment_received { peer = c.remote_addr; retransmission = false });
      let was_syn_sent = c.st = Syn_sent in
      if flags.Tcp_wire.ack then handle_ack c tw.Tcp_wire.ack_n;
      (* The active opener acknowledges the SYN-ACK; the passive opener's
         SYN-ACK is in flight and carries the acknowledgement itself. *)
      if was_syn_sent then send_bare_ack c
    end
  end
  else begin
    if flags.Tcp_wire.ack then handle_ack c tw.Tcp_wire.ack_n;
    let data_len = Bytes.length tw.Tcp_wire.payload in
    let seq_len = data_len + if flags.Tcp_wire.fin then 1 else 0 in
    if seq_len > 0 then begin
      if tw.Tcp_wire.seq = c.rcv_nxt then begin
        (* In-order segment. *)
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt seq_len;
        feedback stack
          (Segment_received { peer = c.remote_addr; retransmission = false });
        if data_len > 0 then begin
          c.delivered <- c.delivered + data_len;
          match c.recv_cb with
          | Some f -> f tw.Tcp_wire.payload
          | None -> ()
        end;
        if flags.Tcp_wire.fin then
          (match c.st with
          | Established -> set_state c Close_wait
          | Fin_wait -> set_state c Closed
          | Syn_sent | Syn_received | Close_wait | Last_ack | Closed | Aborted
            ->
              ());
        send_bare_ack c
      end
      else if Tcp_wire.seq_lt tw.Tcp_wire.seq c.rcv_nxt then begin
        (* Duplicate: the peer is retransmitting — our ACKs are not getting
           through.  This is the signal the paper wants surfaced (§7.1.2). *)
        feedback stack
          (Segment_received { peer = c.remote_addr; retransmission = true });
        send_bare_ack c
      end
      (* Out-of-order future segments (go-back-N): ignored; the sender's
         timeout resends the whole window in order. *)
    end
  end

let demux t (pkt : Ipv4_packet.t) (tw : Tcp_wire.t) =
  let conn =
    List.find_opt
      (fun c ->
        Ipv4_addr.equal c.local_addr pkt.Ipv4_packet.dst
        && c.local_port = tw.Tcp_wire.dst_port
        && Ipv4_addr.equal c.remote_addr pkt.Ipv4_packet.src
        && c.remote_port = tw.Tcp_wire.src_port)
      t.conns
  in
  match conn with
  | Some c -> segment_input c tw
  | None -> (
      if tw.Tcp_wire.flags.Tcp_wire.syn && not tw.Tcp_wire.flags.Tcp_wire.ack
      then
        match Hashtbl.find_opt t.listeners tw.Tcp_wire.dst_port with
        | Some (window, accept_cb) ->
            (* Passive open. *)
            let iss = t.next_iss in
            t.next_iss <- Tcp_wire.seq_add t.next_iss 64000;
            let c =
              {
                stack = t;
                st = Syn_received;
                local_addr = pkt.Ipv4_packet.dst;
                local_port = tw.Tcp_wire.dst_port;
                remote_addr = pkt.Ipv4_packet.src;
                remote_port = tw.Tcp_wire.src_port;
                mss = default_mss;
                window;
                snd_nxt = Tcp_wire.seq_add iss 1;
                rcv_nxt = Tcp_wire.seq_add tw.Tcp_wire.seq 1;
                send_queue = Queue.create ();
                send_off = 0;
                fin_pending = false;
                inflight = [];
                rto = initial_rto;
                retries = 0;
                total_retx = 0;
                delivered = 0;
                recv_cb = None;
                state_cb = None;
                cancel_timer = None;
              }
            in
            t.conns <- c :: t.conns;
            (* Fire the accept callback once established. *)
            let prev_cb = c.state_cb in
            c.state_cb <-
              Some
                (fun st ->
                  (match prev_cb with Some f -> f st | None -> ());
                  if st = Established then accept_cb c);
            let seg =
              {
                seg_seq = iss;
                seg_len = 1;
                seg_data = Bytes.empty;
                seg_syn = true;
                seg_fin = false;
              }
            in
            c.inflight <- [ seg ];
            transmit_segment c ~retransmission:false seg;
            arm_timer c
        | None ->
            send_rst t ~src:pkt.Ipv4_packet.dst ~dst:pkt.Ipv4_packet.src
              ~src_port:tw.Tcp_wire.dst_port ~dst_port:tw.Tcp_wire.src_port
              ~seq:0
              ~ack_n:(Tcp_wire.seq_add tw.Tcp_wire.seq 1)
      else if not tw.Tcp_wire.flags.Tcp_wire.rst then
        (* Segment for a connection we do not know: reset it. *)
        send_rst t ~src:pkt.Ipv4_packet.dst ~dst:pkt.Ipv4_packet.src
          ~src_port:tw.Tcp_wire.dst_port ~dst_port:tw.Tcp_wire.src_port
          ~seq:tw.Tcp_wire.ack_n ~ack_n:0)

let handle_tcp t _node _in_iface (pkt : Ipv4_packet.t) =
  match pkt.Ipv4_packet.payload with
  | Ipv4_packet.Tcp tw -> demux t pkt tw
  | _ -> ()

let get node =
  match Net.local node key with
  | Some t -> t
  | None ->
      let t =
        {
          tcp_node = node;
          conns = [];
          listeners = Hashtbl.create 8;
          next_iss = 100_000;
          next_port = Well_known.ephemeral_base;
          feedback_cb = None;
          retx_aborts = 0;
        }
      in
      Net.set_local node key t;
      Net.set_protocol_handler node Ipv4_packet.P_tcp (handle_tcp t);
      t

let default_src node =
  match Net.ifaces node with
  | i :: _ -> Net.iface_addr i
  | [] -> Ipv4_addr.any

let connect t ?src ?src_port ?(mss = default_mss) ?(window = 1) ~dst ~dst_port () =
  let src = match src with Some s -> s | None -> default_src t.tcp_node in
  let src_port =
    match src_port with
    | Some p -> p
    | None ->
        let p = t.next_port in
        t.next_port <- (if p >= 65535 then Well_known.ephemeral_base else p + 1);
        p
  in
  let iss = t.next_iss in
  t.next_iss <- Tcp_wire.seq_add t.next_iss 64000;
  let c =
    {
      stack = t;
      st = Syn_sent;
      local_addr = src;
      local_port = src_port;
      remote_addr = dst;
      remote_port = dst_port;
      mss;
      window;
      snd_nxt = Tcp_wire.seq_add iss 1;
      rcv_nxt = 0;
      send_queue = Queue.create ();
      send_off = 0;
      fin_pending = false;
      inflight = [];
      rto = initial_rto;
      retries = 0;
      total_retx = 0;
      delivered = 0;
      recv_cb = None;
      state_cb = None;
      cancel_timer = None;
    }
  in
  t.conns <- c :: t.conns;
  let seg =
    { seg_seq = iss; seg_len = 1; seg_data = Bytes.empty; seg_syn = true;
      seg_fin = false }
  in
  c.inflight <- [ seg ];
  transmit_segment c ~retransmission:false seg;
  arm_timer c;
  c

let send_data c data =
  if Bytes.length data > 0 then begin
    Queue.add data c.send_queue;
    pump c
  end

let close c =
  match c.st with
  | Closed | Aborted -> ()
  | _ ->
      c.fin_pending <- true;
      pump c

let abort c =
  match c.st with
  | Closed | Aborted -> ()
  | _ ->
      stop_timer c;
      c.inflight <- [];
      send_rst c.stack ~src:c.local_addr ~dst:c.remote_addr
        ~src_port:c.local_port ~dst_port:c.remote_port ~seq:c.snd_nxt ~ack_n:0;
      set_state c Closed
