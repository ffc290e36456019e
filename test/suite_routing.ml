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

(* Random sequences of mutations and lookups against a model the test
   keeps itself: a list of (sequence, route) entries, where a lookup's
   answer is the matching entry with the longest prefix, then the lowest
   metric, then the newest, and [routes] lists every entry in that order.
   Each added route carries a distinct gateway, so the model can tell
   which of two otherwise equal routes the table returned.  The prefixes
   nest and share long runs of leading bits (down to /31 and /32 pairs),
   so adds split trie edges and make branch nodes, and removals and
   [clear] take them away again.  The destinations outnumber the cache's
   slots and share low bits, so entries are evicted and reused; every
   mutation must invalidate all of them. *)
type route_op =
  | Add of int * int * int  (* prefix, iface, metric *)
  | Remove of int * int option * int option
  | Remove_iface of int
  | Clear
  | Lookup of int

let op_prefixes =
  Array.map p
    [|
      "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "10.1.0.0/16"; "10.2.0.0/15";
      "10.0.1.0/24"; "10.0.2.0/24"; "10.1.2.0/24"; "10.3.0.0/16";
      "10.1.2.0/28"; "10.0.1.16/28"; "10.2.0.14/32"; "10.1.2.7/32";
      "10.1.2.6/31"; "10.1.2.4/30"; "10.1.2.6/32"; "10.1.2.0/25";
      "10.1.2.128/25"; "10.1.0.0/17"; "10.1.128.0/17"; "10.0.1.17/32";
      "10.3.0.0/32"; "255.255.255.255/32"; "0.0.0.0/32";
    |]

let op_ifaces = [| "a"; "b"; "c" |]

(* 48 destinations over 10.0-3.0-2.0-31: three to each cache slot, and
   16 pairs that share their last octet but not their route; then the
   network and last address of every prefix above. *)
let op_dsts =
  Array.append
    (Array.init 48 (fun k ->
         Ipv4_addr.of_octets 10 (k mod 4) (k / 4 mod 3) (k * 7 mod 32)))
    (Array.concat
       (List.map
          (fun x ->
            [| Ipv4_addr.Prefix.network x; Ipv4_addr.Prefix.broadcast_addr x |])
          (Array.to_list op_prefixes)))

let route_op_gen =
  let open QCheck.Gen in
  let prefix = int_bound (Array.length op_prefixes - 1) in
  let iface = int_bound (Array.length op_ifaces - 1) in
  let metric = int_bound 2 in
  frequency
    [
      (8, map (fun d -> Lookup d) (int_bound (Array.length op_dsts - 1)));
      (4, map3 (fun x i m -> Add (x, i, m)) prefix iface metric);
      (1, map3 (fun x i m -> Remove (x, i, m)) prefix (opt iface) (opt metric));
      (1, map (fun i -> Remove_iface i) iface);
      (1, return Clear);
    ]

let print_route_op = function
  | Add (x, i, m) -> Printf.sprintf "add %d %d %d" x i m
  | Remove (x, i, m) ->
      let o = function Some n -> string_of_int n | None -> "_" in
      Printf.sprintf "remove %d %s %s" x (o i) (o m)
  | Remove_iface i -> Printf.sprintf "remove_iface %d" i
  | Clear -> "clear"
  | Lookup d -> Printf.sprintf "lookup %d" d

(* Most specific first, then cheapest, then newest. *)
let model_order (sa, (ra : Routing.route)) (sb, (rb : Routing.route)) =
  match
    Int.compare
      (Ipv4_addr.Prefix.bits rb.Routing.prefix)
      (Ipv4_addr.Prefix.bits ra.Routing.prefix)
  with
  | 0 -> (
      match Int.compare ra.Routing.metric rb.Routing.metric with
      | 0 -> Int.compare sb sa
      | c -> c)
  | c -> c

let prop_cache_matches_uncached =
  QCheck.Test.make ~name:"cached lookup = uncached LPM over op sequences"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_route_op ops))
       QCheck.Gen.(list_size (0 -- 300) route_op_gen))
    (fun ops ->
      let t = Routing.create () in
      let model = ref [] and seq = ref 0 in
      let sorted () = List.stable_sort model_order !model in
      let agrees d =
        let dst = op_dsts.(d) in
        let expected =
          List.find_map
            (fun (_, r) ->
              if Ipv4_addr.Prefix.mem dst r.Routing.prefix then Some r
              else None)
            (sorted ())
        in
        Routing.lookup t dst = expected
      in
      let listed () = Routing.routes t = List.map snd (sorted ()) in
      let step = function
        | Add (x, i, metric) ->
            incr seq;
            let gateway =
              Ipv4_addr.of_octets 192 168 (!seq / 256) (!seq mod 256)
            in
            Routing.add t ~metric ~gateway ~prefix:op_prefixes.(x)
              ~iface:op_ifaces.(i) ();
            model :=
              ( !seq,
                {
                  Routing.prefix = op_prefixes.(x);
                  gateway = Some gateway;
                  iface = op_ifaces.(i);
                  metric;
                } )
              :: !model;
            listed ()
        | Remove (x, i, metric) ->
            let iface = Option.map (fun i -> op_ifaces.(i)) i in
            Routing.remove t ?iface ?metric ~prefix:op_prefixes.(x) ();
            model :=
              List.filter
                (fun (_, r) ->
                  not
                    (Ipv4_addr.Prefix.equal r.Routing.prefix op_prefixes.(x)
                    && Option.fold ~none:true
                         ~some:(String.equal r.Routing.iface) iface
                    && Option.fold ~none:true
                         ~some:(Int.equal r.Routing.metric) metric))
                !model;
            listed ()
        | Remove_iface i ->
            Routing.remove_iface t ~iface:op_ifaces.(i);
            model :=
              List.filter
                (fun (_, r) -> r.Routing.iface <> op_ifaces.(i))
                !model;
            listed ()
        | Clear ->
            Routing.clear t;
            model := [];
            listed ()
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
