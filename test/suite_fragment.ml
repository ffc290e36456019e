(* Fragmentation and reassembly: boundaries, DF, holes, reordering,
   duplicates, interleaving, expiry, and a qcheck identity property. *)

open Netsim

let a = Ipv4_addr.of_string
let src = a "1.2.3.4"
let dst = a "5.6.7.8"

let raw_pkt ?(ident = 7) n =
  Ipv4_packet.make ~ident ~protocol:(Ipv4_packet.P_other 99) ~src ~dst
    (Ipv4_packet.Raw (Bytes.init n (fun i -> Char.chr (i land 0xff))))

let udp_pkt n =
  Ipv4_packet.make ~ident:9 ~protocol:Ipv4_packet.P_udp ~src ~dst
    (Ipv4_packet.Udp (Udp_wire.make ~src_port:1 ~dst_port:2 (Bytes.make n 'd')))

let fragment_exn ~mtu pkt =
  match Fragment.fragment ~mtu pkt with
  | Ok frags -> frags
  | Error e -> Alcotest.failf "fragment: %a" Fragment.pp_error e

let test_fits_returns_singleton () =
  let pkt = raw_pkt 100 in
  match fragment_exn ~mtu:1500 pkt with
  | [ only ] -> Alcotest.(check bool) "unchanged" true (Ipv4_packet.equal pkt only)
  | l -> Alcotest.failf "expected 1 fragment, got %d" (List.length l)

let test_exact_mtu_not_fragmented () =
  let pkt = raw_pkt 1480 in
  Alcotest.(check int) "exactly mtu" 1500 (Ipv4_packet.byte_length pkt);
  Alcotest.(check int) "one piece" 1 (List.length (fragment_exn ~mtu:1500 pkt))

let test_one_byte_over () =
  let pkt = raw_pkt 1481 in
  let frags = fragment_exn ~mtu:1500 pkt in
  Alcotest.(check int) "two pieces" 2 (List.length frags);
  List.iter
    (fun f ->
      Alcotest.(check bool) "each within mtu" true
        (Ipv4_packet.byte_length f <= 1500))
    frags;
  (* Offsets are in 8-byte units and contiguous. *)
  match frags with
  | [ f1; f2 ] ->
      Alcotest.(check int) "first offset" 0 f1.Ipv4_packet.frag_offset;
      Alcotest.(check bool) "first has MF" true f1.Ipv4_packet.more_fragments;
      Alcotest.(check bool) "second has no MF" false f2.Ipv4_packet.more_fragments;
      Alcotest.(check int) "contiguous"
        (Ipv4_packet.payload_byte_length f1.Ipv4_packet.payload / 8)
        f2.Ipv4_packet.frag_offset
  | _ -> assert false

let test_source_routed_fragmentation () =
  (* RFC 791: only options with the copy bit travel in every fragment.
     Build a packet carrying both an LSR option (type 131 — copy bit set)
     and a record-route-style option (type 7 — no copy bit). *)
  let lsr_opt = Ipv4_options.build_lsr ~via:[ a "9.9.9.9" ] in
  let rr = Bytes.of_string "\x07\x04\x00\x00" in
  let options = Bytes.cat lsr_opt rr in
  let pkt = { (raw_pkt 64) with Ipv4_packet.options } in
  let frags = fragment_exn ~mtu:40 pkt in
  Alcotest.(check bool) "actually fragmented" true (List.length frags > 1);
  let expected_tail = Ipv4_options.copied_options options in
  List.iteri
    (fun i f ->
      if i = 0 then
        Alcotest.(check bytes) "first fragment keeps all options" options
          f.Ipv4_packet.options
      else begin
        Alcotest.(check bytes)
          (Printf.sprintf "fragment %d carries only copied options" i)
          expected_tail f.Ipv4_packet.options;
        (* The route must still be readable on every fragment — that is
           the point of the copy bit. *)
        Alcotest.(check bool)
          (Printf.sprintf "fragment %d LSR parseable" i)
          true
          (Ipv4_options.parse_lsr f.Ipv4_packet.options <> None)
      end)
    frags;
  (* Reassembly restores the full option set from the first fragment. *)
  let r = Fragment.Reassembly.create () in
  let whole =
    List.fold_left
      (fun acc f ->
        match Fragment.Reassembly.add r ~now:0.0 f with
        | Some w -> Some w
        | None -> acc)
      None frags
  in
  match whole with
  | None -> Alcotest.fail "did not reassemble"
  | Some w ->
      Alcotest.(check bytes) "reassembled options" options
        w.Ipv4_packet.options;
      Alcotest.(check bool) "reassembled payload" true
        (w.Ipv4_packet.payload = pkt.Ipv4_packet.payload)

let test_df_refused () =
  let pkt = { (raw_pkt 2000) with Ipv4_packet.dont_fragment = true } in
  match Fragment.fragment ~mtu:1500 pkt with
  | Error Fragment.Dont_fragment -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Fragment.pp_error e
  | Ok _ -> Alcotest.fail "DF ignored"

let test_tiny_mtu_refused () =
  match Fragment.fragment ~mtu:24 (raw_pkt 100) with
  | Error Fragment.Header_too_big -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Fragment.pp_error e
  | Ok _ -> Alcotest.fail "cannot fit any payload in 24 bytes"

let reassemble frags =
  let r = Fragment.Reassembly.create () in
  List.fold_left
    (fun acc f ->
      match Fragment.Reassembly.add r ~now:0.0 f with
      | Some whole -> Some whole
      | None -> acc)
    None frags

let test_reassemble_in_order () =
  let pkt = udp_pkt 3000 in
  let frags = fragment_exn ~mtu:576 pkt in
  Alcotest.(check bool) "several fragments" true (List.length frags >= 5);
  match reassemble frags with
  | Some whole -> Alcotest.(check bool) "identity" true (Ipv4_packet.equal pkt whole)
  | None -> Alcotest.fail "did not complete"

let test_reassemble_reversed () =
  let pkt = udp_pkt 2500 in
  let frags = List.rev (fragment_exn ~mtu:600 pkt) in
  match reassemble frags with
  | Some whole -> Alcotest.(check bool) "identity" true (Ipv4_packet.equal pkt whole)
  | None -> Alcotest.fail "did not complete"

let test_reassemble_with_duplicates () =
  let pkt = udp_pkt 2000 in
  let frags = fragment_exn ~mtu:576 pkt in
  let with_dups = frags @ [ List.hd frags ] @ frags in
  match reassemble with_dups with
  | Some whole -> Alcotest.(check bool) "identity" true (Ipv4_packet.equal pkt whole)
  | None -> Alcotest.fail "did not complete"

let test_hole_never_completes () =
  let pkt = udp_pkt 3000 in
  let frags = fragment_exn ~mtu:576 pkt in
  let holey = List.filteri (fun i _ -> i <> 2) frags in
  match reassemble holey with
  | None -> ()
  | Some _ -> Alcotest.fail "completed despite a hole"

let test_interleaved_datagrams () =
  (* Two datagrams with different idents interleave without mixing. *)
  let p1 = udp_pkt 2000 in
  let p2 =
    Ipv4_packet.make ~ident:10 ~protocol:Ipv4_packet.P_udp ~src ~dst
      (Ipv4_packet.Udp (Udp_wire.make ~src_port:3 ~dst_port:4 (Bytes.make 2000 'e')))
  in
  let f1 = fragment_exn ~mtu:576 p1 in
  let f2 = fragment_exn ~mtu:576 p2 in
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
  in
  let r = Fragment.Reassembly.create () in
  let completed = ref [] in
  List.iter
    (fun f ->
      match Fragment.Reassembly.add r ~now:0.0 f with
      | Some whole -> completed := whole :: !completed
      | None -> ())
    (interleave f1 f2);
  Alcotest.(check int) "both completed" 2 (List.length !completed);
  Alcotest.(check bool) "p1 recovered" true
    (List.exists (Ipv4_packet.equal p1) !completed);
  Alcotest.(check bool) "p2 recovered" true
    (List.exists (Ipv4_packet.equal p2) !completed)

let test_expiry () =
  let pkt = udp_pkt 2000 in
  let frags = fragment_exn ~mtu:576 pkt in
  let r = Fragment.Reassembly.create () in
  (match frags with
  | first :: _ -> ignore (Fragment.Reassembly.add r ~now:1.0 first)
  | [] -> assert false);
  Alcotest.(check int) "one pending" 1 (Fragment.Reassembly.pending r);
  Alcotest.(check int) "expired" 1 (Fragment.Reassembly.expire r ~older_than:5.0);
  Alcotest.(check int) "none pending" 0 (Fragment.Reassembly.pending r)

(* A fragment arriving more than [Reassembly.timeout] after its datagram's
   first one finds that partial dropped, and starts a new one. *)
let test_timeout_on_arrival () =
  let frags = fragment_exn ~mtu:576 (udp_pkt 1000) in
  let feed ~late =
    let r = Fragment.Reassembly.create () in
    let results =
      List.mapi
        (fun i f ->
          let now = if i = 0 then 1.0 else 1.0 +. late in
          Fragment.Reassembly.add r ~now f)
        frags
    in
    (List.exists Option.is_some results, Fragment.Reassembly.pending r)
  in
  Alcotest.(check (pair bool int)) "within the timeout" (true, 0)
    (feed ~late:(Fragment.Reassembly.timeout -. 1.0));
  Alcotest.(check (pair bool int)) "past the timeout" (false, 1)
    (feed ~late:(Fragment.Reassembly.timeout +. 1.0))

let test_non_fragment_passthrough () =
  let r = Fragment.Reassembly.create () in
  let pkt = udp_pkt 100 in
  match Fragment.Reassembly.add r ~now:0.0 pkt with
  | Some p -> Alcotest.(check bool) "unchanged" true (Ipv4_packet.equal pkt p)
  | None -> Alcotest.fail "swallowed a whole packet"

let prop_fragment_reassemble_identity =
  QCheck.Test.make ~name:"fragment/reassemble identity" ~count:150
    QCheck.(pair (100 -- 5000) (40 -- 1500))
    (fun (size, mtu) ->
      QCheck.assume (mtu >= 48);
      let pkt = udp_pkt size in
      match Fragment.fragment ~mtu pkt with
      | Error _ -> QCheck.assume_fail ()
      | Ok frags -> (
          List.for_all (fun f -> Ipv4_packet.byte_length f <= mtu) frags
          &&
          match reassemble frags with
          | Some whole -> Ipv4_packet.equal pkt whole
          | None -> false))

let prop_fragment_count =
  QCheck.Test.make ~name:"fragment count is ceil(payload/chunk)" ~count:150
    QCheck.(pair (1 -- 8000) (60 -- 1500))
    (fun (size, mtu) ->
      let pkt = raw_pkt size in
      match Fragment.fragment ~mtu pkt with
      | Error _ -> QCheck.assume_fail ()
      | Ok frags ->
          let chunk = (mtu - 20) / 8 * 8 in
          let expected =
            if 20 + size <= mtu then 1 else (size + chunk - 1) / chunk
          in
          List.length frags = expected)

let suites =
  [
    ( "fragment",
      [
        Alcotest.test_case "fits: singleton" `Quick test_fits_returns_singleton;
        Alcotest.test_case "exact mtu boundary" `Quick
          test_exact_mtu_not_fragmented;
        Alcotest.test_case "one byte over" `Quick test_one_byte_over;
        Alcotest.test_case "DF refused" `Quick test_df_refused;
        Alcotest.test_case "source-routed fragmentation (copy bit)" `Quick
          test_source_routed_fragmentation;
        Alcotest.test_case "tiny mtu refused" `Quick test_tiny_mtu_refused;
        Alcotest.test_case "reassemble in order" `Quick test_reassemble_in_order;
        Alcotest.test_case "reassemble reversed" `Quick test_reassemble_reversed;
        Alcotest.test_case "reassemble with duplicates" `Quick
          test_reassemble_with_duplicates;
        Alcotest.test_case "hole never completes" `Quick test_hole_never_completes;
        Alcotest.test_case "interleaved datagrams" `Quick
          test_interleaved_datagrams;
        Alcotest.test_case "expiry" `Quick test_expiry;
        Alcotest.test_case "timeout on arrival" `Quick test_timeout_on_arrival;
        Alcotest.test_case "non-fragment passthrough" `Quick
          test_non_fragment_passthrough;
        QCheck_alcotest.to_alcotest prop_fragment_reassemble_identity;
        QCheck_alcotest.to_alcotest prop_fragment_count;
      ] );
  ]
