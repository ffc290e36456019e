(* Routing tables: longest-prefix match, metrics, removal, and a property
   against a reference implementation. *)

open Netsim

let a = Ipv4_addr.of_string
let p = Ipv4_addr.Prefix.of_string

let table_of routes =
  let t = Routing.create () in
  List.iter
    (fun (prefix, gateway, iface, metric) ->
      Routing.add t ~metric ?gateway ~prefix:(p prefix) ~iface ())
    routes;
  t

let lookup_iface t dst =
  Option.map (fun r -> r.Routing.iface) (Routing.lookup t (a dst))

let test_longest_prefix_wins () =
  let t =
    table_of
      [
        ("10.0.0.0/8", None, "coarse", 0);
        ("10.1.0.0/16", None, "finer", 0);
        ("10.1.2.0/24", None, "finest", 0);
      ]
  in
  Alcotest.(check (option string)) "/24" (Some "finest")
    (lookup_iface t "10.1.2.3");
  Alcotest.(check (option string)) "/16" (Some "finer")
    (lookup_iface t "10.1.9.9");
  Alcotest.(check (option string)) "/8" (Some "coarse")
    (lookup_iface t "10.200.0.1");
  Alcotest.(check (option string)) "miss" None (lookup_iface t "11.0.0.1")

let test_default_route () =
  let t = table_of [ ("36.1.0.0/16", None, "lan", 0) ] in
  Routing.add_default t ~gateway:(a "10.0.0.1") ~iface:"wan";
  Alcotest.(check (option string)) "specific" (Some "lan")
    (lookup_iface t "36.1.5.5");
  Alcotest.(check (option string)) "default" (Some "wan")
    (lookup_iface t "200.1.1.1")

let test_metric_tiebreak () =
  let t =
    table_of
      [ ("10.0.0.0/8", None, "expensive", 10); ("10.0.0.0/8", None, "cheap", 1) ]
  in
  Alcotest.(check (option string)) "lower metric wins" (Some "cheap")
    (lookup_iface t "10.1.1.1")

let test_remove_prefix () =
  let t = table_of [ ("10.0.0.0/8", None, "x", 0); ("10.1.0.0/16", None, "y", 0) ] in
  Routing.remove t ~prefix:(p "10.1.0.0/16") ();
  Alcotest.(check (option string)) "fallback to /8" (Some "x")
    (lookup_iface t "10.1.1.1");
  Alcotest.(check int) "one route left" 1 (List.length (Routing.routes t))

let test_remove_iface () =
  let t =
    table_of
      [
        ("10.0.0.0/8", None, "eth0", 0);
        ("20.0.0.0/8", None, "eth0", 0);
        ("30.0.0.0/8", None, "eth1", 0);
      ]
  in
  Routing.remove_iface t ~iface:"eth0";
  Alcotest.(check int) "only eth1 remains" 1 (List.length (Routing.routes t));
  Alcotest.(check (option string)) "eth1 still routes" (Some "eth1")
    (lookup_iface t "30.1.1.1")

let test_gateway_returned () =
  let t = table_of [ ("0.0.0.0/0", Some (a "10.0.0.1"), "wan", 0) ] in
  match Routing.lookup t (a "99.0.0.1") with
  | Some r ->
      Alcotest.(check (option string)) "gateway" (Some "10.0.0.1")
        (Option.map Ipv4_addr.to_string r.Routing.gateway)
  | None -> Alcotest.fail "no route"

(* Reference LPM: scan all routes, filter matching, pick max bits then min
   metric. *)
let reference_lookup routes dst =
  let matching =
    List.filter (fun (prefix, _, _) -> Ipv4_addr.Prefix.mem dst prefix) routes
  in
  List.fold_left
    (fun best ((prefix, metric, _) as r) ->
      match best with
      | None -> Some r
      | Some (bp, bm, _) ->
          let b = Ipv4_addr.Prefix.bits prefix and bb = Ipv4_addr.Prefix.bits bp in
          if b > bb || (b = bb && metric < bm) then Some r else best)
    None matching

let arb_prefix =
  QCheck.map
    (fun ((x, y), bits) ->
      Ipv4_addr.Prefix.make (Ipv4_addr.of_octets x y 0 0) bits)
    QCheck.(pair (pair (0 -- 255) (0 -- 255)) (0 -- 24))

let prop_matches_reference =
  QCheck.Test.make ~name:"lookup agrees with reference LPM" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 15) (pair arb_prefix (0 -- 3)))
        (pair (0 -- 255) (0 -- 255)))
    (fun (routes, (x, y)) ->
      let dst = Ipv4_addr.of_octets x y 1 1 in
      let t = Routing.create () in
      let tagged =
        List.mapi
          (fun i (prefix, metric) ->
            let iface = Printf.sprintf "if%d" i in
            Routing.add t ~metric ~prefix ~iface ();
            (prefix, metric, iface))
          routes
      in
      match (Routing.lookup t dst, reference_lookup tagged dst) with
      | None, None -> true
      | Some r, Some (bp, bm, _) ->
          (* The chosen route must be as specific and as cheap as the
             reference (several routes may tie). *)
          Ipv4_addr.Prefix.bits r.Routing.prefix = Ipv4_addr.Prefix.bits bp
          && r.Routing.metric = bm
          && Ipv4_addr.Prefix.mem dst r.Routing.prefix
      | _ -> false)

let test_newest_wins_tiebreak () =
  let t = table_of [ ("10.0.0.0/8", None, "older", 5) ] in
  Routing.add t ~metric:5 ~prefix:(p "10.0.0.0/8") ~iface:"newer" ();
  Alcotest.(check (option string)) "equal metric: newest wins" (Some "newer")
    (lookup_iface t "10.9.9.9")

let test_remove_filters () =
  let routes =
    [
      ("10.0.0.0/8", None, "eth0", 1);
      ("10.0.0.0/8", None, "eth1", 2);
      ("10.0.0.0/8", None, "eth2", 3);
    ]
  in
  let t = table_of routes in
  Routing.remove t ~iface:"eth1" ~prefix:(p "10.0.0.0/8") ();
  Alcotest.(check int) "iface filter removes one" 2
    (List.length (Routing.routes t));
  Alcotest.(check (option string)) "cheapest survivor wins" (Some "eth0")
    (lookup_iface t "10.1.1.1");
  Routing.remove t ~metric:3 ~prefix:(p "10.0.0.0/8") ();
  Alcotest.(check int) "metric filter removes one" 1
    (List.length (Routing.routes t));
  let t2 = table_of routes in
  Routing.remove t2 ~prefix:(p "10.0.0.0/8") ();
  Alcotest.(check int) "no filter removes all at prefix" 0
    (List.length (Routing.routes t2));
  let t3 = table_of routes in
  Routing.remove t3 ~iface:"nope" ~prefix:(p "10.0.0.0/8") ();
  Alcotest.(check int) "unmatched filter removes nothing" 3
    (List.length (Routing.routes t3))

let test_lookup_cache_invalidation () =
  let t = table_of [ ("10.0.0.0/8", None, "coarse", 0) ] in
  Alcotest.(check (option string)) "warm the cache" (Some "coarse")
    (lookup_iface t "10.1.2.3");
  Routing.add t ~metric:0 ~prefix:(p "10.1.0.0/16") ~iface:"fine" ();
  Alcotest.(check (option string)) "add invalidates" (Some "fine")
    (lookup_iface t "10.1.2.3");
  Alcotest.(check (option string)) "repeat (cached) lookup" (Some "fine")
    (lookup_iface t "10.1.2.3");
  Routing.remove t ~prefix:(p "10.1.0.0/16") ();
  Alcotest.(check (option string)) "remove invalidates" (Some "coarse")
    (lookup_iface t "10.1.2.3");
  Routing.clear t;
  Alcotest.(check (option string)) "clear invalidates" None
    (lookup_iface t "10.1.2.3")

let prop_matches_reference_after_removes =
  QCheck.Test.make ~name:"lookup agrees with reference after removals"
    ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 15) (pair arb_prefix (0 -- 3)))
        (list_of_size Gen.(0 -- 10) (0 -- 14))
        (pair (0 -- 255) (0 -- 255)))
    (fun (routes, removals, (x, y)) ->
      let dst = Ipv4_addr.of_octets x y 1 1 in
      let t = Routing.create () in
      let tagged =
        List.mapi
          (fun i (prefix, metric) ->
            let iface = Printf.sprintf "if%d" i in
            Routing.add t ~metric ~prefix ~iface ();
            (prefix, metric, iface))
          routes
      in
      let doomed = List.filter_map (fun i -> List.nth_opt tagged i) removals in
      List.iter
        (fun (prefix, _, iface) ->
          (* Churn the destination cache between mutations. *)
          ignore (Routing.lookup t dst);
          Routing.remove t ~iface ~prefix ())
        doomed;
      let remaining =
        List.filter
          (fun (_, _, i) -> not (List.exists (fun (_, _, j) -> j = i) doomed))
          tagged
      in
      match (Routing.lookup t dst, reference_lookup remaining dst) with
      | None, None -> true
      | Some r, Some (bp, bm, _) ->
          Ipv4_addr.Prefix.bits r.Routing.prefix = Ipv4_addr.Prefix.bits bp
          && r.Routing.metric = bm
          && Ipv4_addr.Prefix.mem dst r.Routing.prefix
      | _ -> false)

(* Random sequences of mutations and lookups against an uncached answer:
   the first route in [Routing.routes] (most specific, cheapest, newest
   first) whose prefix holds the destination.  The destinations outnumber
   the cache's slots and share low bits, so entries are evicted and
   reused; every mutation must invalidate all of them. *)
type route_op =
  | Add of int * int * int  (* prefix, iface, metric *)
  | Remove of int * int option * int option
  | Remove_iface of int
  | Lookup of int

let op_prefixes =
  Array.map p
    [|
      "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "10.1.0.0/16"; "10.2.0.0/15";
      "10.0.1.0/24"; "10.0.2.0/24"; "10.1.2.0/24"; "10.3.0.0/16";
      "10.1.2.0/28"; "10.0.1.16/28"; "10.2.0.14/32"; "10.1.2.7/32";
    |]

let op_ifaces = [| "a"; "b"; "c" |]

(* 48 destinations over 10.0-3.0-2.0-31: three to each cache slot, and
   16 pairs that share their last octet but not their route. *)
let op_dsts =
  Array.init 48 (fun k ->
      Ipv4_addr.of_octets 10 (k mod 4) (k / 4 mod 3) (k * 7 mod 32))

let route_op_gen =
  let open QCheck.Gen in
  let prefix = int_bound (Array.length op_prefixes - 1) in
  let iface = int_bound (Array.length op_ifaces - 1) in
  let metric = int_bound 2 in
  frequency
    [
      (8, map (fun d -> Lookup d) (int_bound (Array.length op_dsts - 1)));
      (3, map3 (fun x i m -> Add (x, i, m)) prefix iface metric);
      (1, map3 (fun x i m -> Remove (x, i, m)) prefix (opt iface) (opt metric));
      (1, map (fun i -> Remove_iface i) iface);
    ]

let print_route_op = function
  | Add (x, i, m) -> Printf.sprintf "add %d %d %d" x i m
  | Remove (x, i, m) ->
      let o = function Some n -> string_of_int n | None -> "_" in
      Printf.sprintf "remove %d %s %s" x (o i) (o m)
  | Remove_iface i -> Printf.sprintf "remove_iface %d" i
  | Lookup d -> Printf.sprintf "lookup %d" d

let prop_cache_matches_uncached =
  QCheck.Test.make ~name:"cached lookup = uncached LPM over op sequences"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_route_op ops))
       QCheck.Gen.(list_size (0 -- 300) route_op_gen))
    (fun ops ->
      let t = Routing.create () in
      let uncached dst =
        List.find_opt
          (fun r -> Ipv4_addr.Prefix.mem dst r.Routing.prefix)
          (Routing.routes t)
      in
      let agrees d =
        let dst = op_dsts.(d) in
        Routing.lookup t dst = uncached dst
      in
      let step = function
        | Add (x, i, metric) ->
            Routing.add t ~metric ~prefix:op_prefixes.(x) ~iface:op_ifaces.(i)
              ();
            true
        | Remove (x, i, metric) ->
            Routing.remove t
              ?iface:(Option.map (fun i -> op_ifaces.(i)) i)
              ?metric ~prefix:op_prefixes.(x) ();
            true
        | Remove_iface i ->
            Routing.remove_iface t ~iface:op_ifaces.(i);
            true
        | Lookup d -> agrees d
      in
      List.for_all step ops
      && List.for_all agrees (List.init (Array.length op_dsts) Fun.id))

let suites =
  [
    ( "routing",
      [
        Alcotest.test_case "longest prefix wins" `Quick test_longest_prefix_wins;
        Alcotest.test_case "default route" `Quick test_default_route;
        Alcotest.test_case "metric tiebreak" `Quick test_metric_tiebreak;
        Alcotest.test_case "remove prefix" `Quick test_remove_prefix;
        Alcotest.test_case "remove iface" `Quick test_remove_iface;
        Alcotest.test_case "gateway returned" `Quick test_gateway_returned;
        Alcotest.test_case "newest wins tiebreak" `Quick
          test_newest_wins_tiebreak;
        Alcotest.test_case "remove with iface/metric filters" `Quick
          test_remove_filters;
        Alcotest.test_case "lookup cache invalidation" `Quick
          test_lookup_cache_invalidation;
        QCheck_alcotest.to_alcotest prop_matches_reference;
        QCheck_alcotest.to_alcotest prop_matches_reference_after_removes;
        QCheck_alcotest.to_alcotest prop_cache_matches_uncached;
      ] );
  ]
