type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  h_bounds : float array;
  h_counts : int array;
  mutable h_overflow : int;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

type registry = { metrics : (string, string * metric) Hashtbl.t }
(* name -> (help, metric) *)

let create () = { metrics = Hashtbl.create 32 }

let default_latency_buckets_ms =
  [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0 |]

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let find_or_create reg ~help name make match_kind =
  match Hashtbl.find_opt reg.metrics name with
  | Some (_, m) -> (
      match match_kind m with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Netobs.Metrics: %S already registered as a %s"
               name (kind_name m)))
  | None ->
      let x, m = make () in
      Hashtbl.add reg.metrics name (help, m);
      x

let counter reg ?(help = "") name =
  find_or_create reg ~help name
    (fun () ->
      let c = { c_value = 0 } in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)

let gauge reg ?(help = "") name =
  find_or_create reg ~help name
    (fun () ->
      let g = { g_value = 0.0 } in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)

let histogram reg ?(help = "") ?(buckets = default_latency_buckets_ms) name =
  find_or_create reg ~help name
    (fun () ->
      if Array.length buckets = 0 then
        invalid_arg "Netobs.Metrics.histogram: empty buckets";
      Array.iteri
        (fun i b ->
          if i > 0 && buckets.(i - 1) >= b then
            invalid_arg
              "Netobs.Metrics.histogram: bucket bounds must be strictly \
               increasing")
        buckets;
      let h =
        {
          h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets) 0;
          h_overflow = 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      (h, M_histogram h))
    (function M_histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  let n = Array.length h.h_bounds in
  let rec place i =
    if i >= n then h.h_overflow <- h.h_overflow + 1
    else if v <= h.h_bounds.(i) then h.h_counts.(i) <- h.h_counts.(i) + 1
    else place (i + 1)
  in
  place 0;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

(* ---------- snapshots ---------- *)

type hist_view = {
  buckets : (float * int) array;
  overflow : int;
  count : int;
  sum : float;
  minimum : float;
  maximum : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_view
type sample = { name : string; help : string; value : value }

let view_of_histogram h =
  {
    buckets = Array.mapi (fun i b -> (b, h.h_counts.(i))) h.h_bounds;
    overflow = h.h_overflow;
    count = h.h_count;
    sum = h.h_sum;
    minimum = (if h.h_count = 0 then 0.0 else h.h_min);
    maximum = (if h.h_count = 0 then 0.0 else h.h_max);
  }

(* Bucket-interpolated percentile: walk the cumulative counts to the
   bucket holding the target rank, then interpolate linearly inside it.
   The first bucket's lower edge is the observed minimum, and the
   overflow bucket's upper edge the observed maximum, so estimates never
   leave the observed range — and with all mass in one bucket the
   interpolation spans [min, max] instead of inventing bound-width
   precision the histogram does not have. *)
let percentile (h : hist_view) p =
  if h.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let target = p /. 100.0 *. float_of_int h.count in
    let nb = Array.length h.buckets in
    let clamp v = Float.max h.minimum (Float.min h.maximum v) in
    let interp ~lower ~upper ~cum ~n =
      if n = 0 then clamp upper
      else
        clamp
          (lower
          +. (upper -. lower)
             *. ((target -. float_of_int cum) /. float_of_int n))
    in
    let rec walk i cum lower =
      if i >= nb then
        interp ~lower ~upper:h.maximum ~cum ~n:h.overflow
      else
        let bound, n = h.buckets.(i) in
        if float_of_int (cum + n) >= target && n > 0 then
          interp ~lower ~upper:bound ~cum ~n
        else walk (i + 1) (cum + n) (if n > 0 then bound else lower)
    in
    walk 0 0 h.minimum
  end

let snapshot reg =
  Hashtbl.fold
    (fun name (help, m) acc ->
      let value =
        match m with
        | M_counter c -> Counter c.c_value
        | M_gauge g -> Gauge g.g_value
        | M_histogram h -> Histogram (view_of_histogram h)
      in
      { name; help; value } :: acc)
    reg.metrics []
  |> List.sort (fun a b -> String.compare a.name b.name)

let value_kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let pp_snapshot fmt samples =
  Format.fprintf fmt "== metrics snapshot (%d series) ==@."
    (List.length samples);
  Format.fprintf fmt "  %-48s %-10s %s@." "name" "type" "value";
  List.iter
    (fun s ->
      (match s.value with
      | Counter n -> Format.fprintf fmt "  %-48s %-10s %d@." s.name "counter" n
      | Gauge v -> Format.fprintf fmt "  %-48s %-10s %g@." s.name "gauge" v
      | Histogram h ->
          Format.fprintf fmt
            "  %-48s %-10s count=%d sum=%g min=%g max=%g mean=%g p50=%g \
             p90=%g p99=%g@."
            s.name "histogram" h.count h.sum h.minimum h.maximum
            (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count)
            (percentile h 50.0) (percentile h 90.0) (percentile h 99.0);
          Format.fprintf fmt "  %-48s   buckets:" "";
          Array.iter
            (fun (b, n) -> Format.fprintf fmt " <=%g:%d" b n)
            h.buckets;
          Format.fprintf fmt " >%g:%d@."
            (fst h.buckets.(Array.length h.buckets - 1))
            h.overflow);
      if s.help <> "" then Format.fprintf fmt "  %-48s   # %s@." "" s.help)
    samples

let snapshot_to_json samples =
  let module Json = Netsim.Json in
  Json.Obj
    [
      ( "metrics",
        Json.List
          (List.map
             (fun s ->
               let base =
                 [
                   ("name", Json.String s.name);
                   ("type", Json.String (value_kind s.value));
                 ]
               in
               let base =
                 if s.help = "" then base
                 else base @ [ ("help", Json.String s.help) ]
               in
               let rest =
                 match s.value with
                 | Counter n -> [ ("value", Json.Int n) ]
                 | Gauge v -> [ ("value", Json.Float v) ]
                 | Histogram h ->
                     [
                       ("count", Json.Int h.count);
                       ("sum", Json.Float h.sum);
                       ("min", Json.Float h.minimum);
                       ("max", Json.Float h.maximum);
                       ("p50", Json.Float (percentile h 50.0));
                       ("p90", Json.Float (percentile h 90.0));
                       ("p99", Json.Float (percentile h 99.0));
                       ( "buckets",
                         Json.List
                           (Array.to_list
                              (Array.map
                                 (fun (b, n) ->
                                   Json.Obj
                                     [
                                       ("le", Json.Float b);
                                       ("count", Json.Int n);
                                     ])
                                 h.buckets)) );
                       ("overflow", Json.Int h.overflow);
                     ]
               in
               Json.Obj (base @ rest))
             samples) );
    ]
