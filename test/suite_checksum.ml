(* Internet checksum (RFC 1071) tests, including the RFC's worked example. *)

open Netsim

let bytes_of_ints ints =
  let b = Bytes.create (List.length ints) in
  List.iteri (fun i v -> Bytes.set b i (Char.chr v)) ints;
  b

let test_rfc1071_example () =
  (* RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 (before
     complement). *)
  let data = bytes_of_ints [ 0x00; 0x01; 0xf2; 0x03; 0xf4; 0xf5; 0xf6; 0xf7 ] in
  let sum = Checksum.ones_complement_sum data 0 8 in
  Alcotest.(check int) "partial sum" 0xddf2 sum;
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xffff)
    (Checksum.compute data)

let test_empty_buffer () =
  Alcotest.(check int) "empty sums to 0xffff" 0xffff
    (Checksum.compute Bytes.empty)

let test_odd_length_padding () =
  (* A trailing odd byte is treated as the high byte of a zero-padded
     word. *)
  let odd = bytes_of_ints [ 0x12; 0x34; 0x56 ] in
  let even = bytes_of_ints [ 0x12; 0x34; 0x56; 0x00 ] in
  Alcotest.(check int) "odd = even-with-zero-pad" (Checksum.compute even)
    (Checksum.compute odd)

let test_known_vectors () =
  (* The classic IPv4-header example (checksum field zeroed): the computed
     checksum must be 0xb861. *)
  let ipv4_header =
    bytes_of_ints
      [ 0x45; 0x00; 0x00; 0x73; 0x00; 0x00; 0x40; 0x00; 0x40; 0x11; 0x00;
        0x00; 0xc0; 0xa8; 0x00; 0x01; 0xc0; 0xa8; 0x00; 0xc7 ]
  in
  Alcotest.(check int) "ipv4 header vector" 0xb861
    (Checksum.compute ipv4_header);
  (* Odd-length vectors: the dangling byte is the high half of a
     zero-padded word (RFC 1071's byte-order rule). *)
  Alcotest.(check int) "single byte 0x01 sum" 0x0100
    (Checksum.ones_complement_sum (bytes_of_ints [ 0x01 ]) 0 1);
  Alcotest.(check int) "single byte 0x01 checksum" 0xfeff
    (Checksum.compute (bytes_of_ints [ 0x01 ]));
  Alcotest.(check int) "five 0xff bytes" 0x00ff
    (Checksum.compute (bytes_of_ints [ 0xff; 0xff; 0xff; 0xff; 0xff ]));
  Alcotest.(check int) "odd-length icmp-style body" 0x84ca
    (Checksum.compute
       (bytes_of_ints
          [ 0x08; 0x00; 0x00; 0x00; 0x12; 0x34; 0x00; 0x01; 0x61 ]))

let test_verification () =
  let data = bytes_of_ints [ 0xde; 0xad; 0xbe; 0xef; 0x01; 0x02 ] in
  let csum = Checksum.compute data in
  let with_csum = Bytes.cat data (bytes_of_ints [ csum lsr 8; csum land 0xff ]) in
  Alcotest.(check bool) "buffer+checksum verifies" true
    (Checksum.valid with_csum);
  Bytes.set with_csum 0 '\xdf';
  Alcotest.(check bool) "corruption detected" false (Checksum.valid with_csum)

let test_range_checked () =
  Alcotest.check_raises "bad range"
    (Invalid_argument "Checksum.ones_complement_sum: range out of bounds")
    (fun () -> ignore (Checksum.ones_complement_sum (Bytes.create 4) 2 3))

let test_initial_accumulation () =
  (* Summing in two chunks with carried initial equals one pass, for
     even-length chunk boundaries. *)
  let data = bytes_of_ints [ 0x11; 0x22; 0x33; 0x44; 0x55; 0x66 ] in
  let whole = Checksum.ones_complement_sum data 0 6 in
  let first = Checksum.ones_complement_sum data 0 4 in
  let both = Checksum.ones_complement_sum ~initial:first data 4 2 in
  Alcotest.(check int) "chunked = whole" whole both

let test_pseudo_header () =
  let src = Ipv4_addr.of_string "36.1.0.5" in
  let dst = Ipv4_addr.of_string "44.2.0.10" in
  let sum = Checksum.pseudo_header_sum ~src ~dst ~protocol:17 ~length:100 in
  (* 36.1 + 0.5 + 44.2 + 0.10 + 17 + 100 folded *)
  let expect =
    let fold x = ((x land 0xffff) + (x lsr 16)) land 0xffff in
    fold (0x2401 + 0x0005 + 0x2c02 + 0x000a + 17 + 100)
  in
  Alcotest.(check int) "pseudo header sum" expect sum

let prop_chunked_equals_whole =
  QCheck.Test.make ~name:"checksum chunking at even offsets" ~count:300
    QCheck.(pair (list_of_size Gen.(2 -- 40) (0 -- 255)) small_nat)
    (fun (ints, cut) ->
      let data = bytes_of_ints ints in
      let n = Bytes.length data in
      let cut = cut mod (n + 1) in
      let cut = cut - (cut mod 2) in
      QCheck.assume (cut >= 0 && cut <= n);
      let whole = Checksum.ones_complement_sum data 0 n in
      let first = Checksum.ones_complement_sum data 0 cut in
      let rest = Checksum.ones_complement_sum ~initial:first data cut (n - cut) in
      whole = rest)

let prop_verifies =
  QCheck.Test.make ~name:"appending the checksum always verifies" ~count:300
    QCheck.(list_of_size Gen.(0 -- 64) (0 -- 255))
    (fun ints ->
      (* valid() pads odd buffers; keep the data even so the stored
         checksum occupies a full word boundary. *)
      let ints = if List.length ints mod 2 = 1 then 0 :: ints else ints in
      let data = bytes_of_ints ints in
      let csum = Checksum.compute data in
      Checksum.valid
        (Bytes.cat data (bytes_of_ints [ csum lsr 8; csum land 0xff ])))

let suites =
  [
    ( "checksum",
      [
        Alcotest.test_case "rfc 1071 worked example" `Quick test_rfc1071_example;
        Alcotest.test_case "empty buffer" `Quick test_empty_buffer;
        Alcotest.test_case "odd length padding" `Quick test_odd_length_padding;
        Alcotest.test_case "known vectors incl. odd-length" `Quick
          test_known_vectors;
        Alcotest.test_case "verification + corruption" `Quick test_verification;
        Alcotest.test_case "range checked" `Quick test_range_checked;
        Alcotest.test_case "initial accumulation" `Quick
          test_initial_accumulation;
        Alcotest.test_case "pseudo header" `Quick test_pseudo_header;
        QCheck_alcotest.to_alcotest prop_chunked_equals_whole;
        QCheck_alcotest.to_alcotest prop_verifies;
      ] );
  ]
