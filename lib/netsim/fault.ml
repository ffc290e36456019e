(* A deterministic, scriptable fault plan attached to a Net.t.

   All state changes are engine events scheduled at absolute sim-times, and
   the only randomness (duplication and reordering rolls, jitter) comes
   from a seeded LCG — the same generator family as the per-link loss
   model — so a run under a fault plan replays identically. *)

type stats = {
  flap_drops : int;
  partition_drops : int;
  duplicated : int;
  delayed : int;
}

type t = {
  net : Net.t;
  mutable lcg : int;
  mutable down_links : string list;
  mutable partitions : (string list * string list) list;
  mutable spikes : (string * float) list;  (* link name, extra seconds *)
  mutable dup_rate : float;
  mutable reorder : (float * float) option;  (* rate, max extra seconds *)
  mutable flap_drops : int;
  mutable partition_drops : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let stats t =
  {
    flap_drops = t.flap_drops;
    partition_drops = t.partition_drops;
    duplicated = t.duplicated;
    delayed = t.delayed;
  }

(* Same constants as the link loss model so both stay replayable. *)
let roll t =
  t.lcg <- ((t.lcg * 1103515245) + 12345) land 0x3fffffff;
  float_of_int t.lcg /. 1073741824.0

let crosses_partition t ~src ~dst =
  List.exists
    (fun (a, b) ->
      (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a))
    t.partitions

let verdict t ~link ~src ~dst =
  if List.mem link t.down_links then begin
    t.flap_drops <- t.flap_drops + 1;
    Net.Fault_drop Trace.Link_flap
  end
  else if crosses_partition t ~src ~dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Net.Fault_drop Trace.Partitioned
  end
  else begin
    let spike =
      List.fold_left
        (fun acc (l, extra) -> if l = link then acc +. extra else acc)
        0.0 t.spikes
    in
    let jitter =
      match t.reorder with
      | Some (rate, max_extra) when roll t < rate ->
          t.delayed <- t.delayed + 1;
          roll t *. max_extra
      | Some _ | None -> 0.0
    in
    let duplicate = t.dup_rate > 0.0 && roll t < t.dup_rate in
    if duplicate then t.duplicated <- t.duplicated + 1;
    let extra_delay = spike +. jitter in
    if extra_delay > 0.0 || duplicate then
      Net.Fault_deliver { extra_delay; duplicate }
    else Net.Fault_pass
  end

let attach ?(seed = 0xfa17) net =
  let t =
    {
      net;
      lcg = seed land 0x3fffffff;
      down_links = [];
      partitions = [];
      spikes = [];
      dup_rate = 0.0;
      reorder = None;
      flap_drops = 0;
      partition_drops = 0;
      duplicated = 0;
      delayed = 0;
    }
  in
  Net.set_fault_hook net
    (Some (fun ~link ~src ~dst -> verdict t ~link ~src ~dst));
  t

let detach t = Net.set_fault_hook t.net None

(* Scheduled plan actions.  A time at or before "now" applies immediately,
   so plans can be scripted against worlds that have already run a while. *)
let at t ~time f =
  let eng = Net.engine t.net in
  if time <= Engine.now eng then f () else Engine.schedule eng ~at:time f

let link_down t ~at:time ~link =
  at t ~time (fun () ->
      if not (List.mem link t.down_links) then
        t.down_links <- link :: t.down_links)

let link_up t ~at:time ~link =
  at t ~time (fun () ->
      t.down_links <- List.filter (fun l -> l <> link) t.down_links)

let flap t ~link ~down ~up =
  if up <= down then invalid_arg "Fault.flap: up must be after down";
  link_down t ~at:down ~link;
  link_up t ~at:up ~link

let partition t ~from_ ~until ~a ~b =
  if until <= from_ then invalid_arg "Fault.partition: empty window";
  let sides = (a, b) in
  at t ~time:from_ (fun () -> t.partitions <- sides :: t.partitions);
  at t ~time:until (fun () ->
      t.partitions <- List.filter (fun p -> p != sides) t.partitions)

let latency_spike t ~link ~from_ ~until ~extra =
  if until <= from_ then invalid_arg "Fault.latency_spike: empty window";
  if extra < 0.0 then invalid_arg "Fault.latency_spike: negative extra";
  let entry = (link, extra) in
  at t ~time:from_ (fun () -> t.spikes <- entry :: t.spikes);
  at t ~time:until (fun () ->
      t.spikes <- List.filter (fun s -> s != entry) t.spikes)

let duplicate_window t ~from_ ~until ~rate =
  if until <= from_ then invalid_arg "Fault.duplicate_window: empty window";
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Fault.duplicate_window: rate must be in [0,1)";
  at t ~time:from_ (fun () -> t.dup_rate <- rate);
  at t ~time:until (fun () -> t.dup_rate <- 0.0)

let reorder_window t ~from_ ~until ~rate ~max_extra =
  if until <= from_ then invalid_arg "Fault.reorder_window: empty window";
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Fault.reorder_window: rate must be in [0,1)";
  if max_extra <= 0.0 then
    invalid_arg "Fault.reorder_window: max_extra must be positive";
  at t ~time:from_ (fun () -> t.reorder <- Some (rate, max_extra));
  at t ~time:until (fun () -> t.reorder <- None)

(* ---------- declarative plans ---------- *)

(* A plan as data rather than a sequence of API calls: what the {!Chaos}
   generator produces, the delta-debugging shrinker edits, and the
   [--fault-json] repro files store.  [apply] funnels every event through
   the imperative API above, so the two styles stay behaviourally
   identical. *)

type event =
  | Flap of { link : string; down : float; up : float }
  | Partition of { from_ : float; until : float; a : string list; b : string list }
  | Latency_spike of { link : string; from_ : float; until : float; extra : float }
  | Duplicate of { from_ : float; until : float; rate : float }
  | Reorder of { from_ : float; until : float; rate : float; max_extra : float }
  | Action of { at_ : float; kind : string; arg : string }

type plan = { seed : int; events : event list }

let event_start = function
  | Flap { down; _ } -> down
  | Partition { from_; _ } | Latency_spike { from_; _ } | Duplicate { from_; _ }
  | Reorder { from_; _ } ->
      from_
  | Action { at_; _ } -> at_

let event_end = function
  | Flap { up; _ } -> up
  | Partition { until; _ } | Latency_spike { until; _ } | Duplicate { until; _ }
  | Reorder { until; _ } ->
      until
  | Action { at_; _ } -> at_

let plan_end p = List.fold_left (fun acc e -> Float.max acc (event_end e)) 0.0 p.events

let apply ?(action = fun ~at:_ ~kind:_ ~arg:_ -> ()) net plan =
  let t = attach ~seed:plan.seed net in
  List.iter
    (fun ev ->
      match ev with
      | Flap { link; down; up } -> flap t ~link ~down ~up
      | Partition { from_; until; a; b } -> partition t ~from_ ~until ~a ~b
      | Latency_spike { link; from_; until; extra } ->
          latency_spike t ~link ~from_ ~until ~extra
      | Duplicate { from_; until; rate } -> duplicate_window t ~from_ ~until ~rate
      | Reorder { from_; until; rate; max_extra } ->
          reorder_window t ~from_ ~until ~rate ~max_extra
      | Action { at_; kind; arg } ->
          at t ~time:at_ (fun () -> action ~at:at_ ~kind ~arg))
    plan.events;
  t

(* JSON round-trip.  Times are always emitted as JSON floats so a re-parse
   restores them bit-for-bit (the printer keeps floats recognisable). *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let json_of_event = function
  | Flap { link; down; up } ->
      Json.Obj
        [
          ("type", Json.String "flap");
          ("link", Json.String link);
          ("down", Json.Float down);
          ("up", Json.Float up);
        ]
  | Partition { from_; until; a; b } ->
      Json.Obj
        [
          ("type", Json.String "partition");
          ("from", Json.Float from_);
          ("until", Json.Float until);
          ("a", strings a);
          ("b", strings b);
        ]
  | Latency_spike { link; from_; until; extra } ->
      Json.Obj
        [
          ("type", Json.String "latency-spike");
          ("link", Json.String link);
          ("from", Json.Float from_);
          ("until", Json.Float until);
          ("extra", Json.Float extra);
        ]
  | Duplicate { from_; until; rate } ->
      Json.Obj
        [
          ("type", Json.String "duplicate");
          ("from", Json.Float from_);
          ("until", Json.Float until);
          ("rate", Json.Float rate);
        ]
  | Reorder { from_; until; rate; max_extra } ->
      Json.Obj
        [
          ("type", Json.String "reorder");
          ("from", Json.Float from_);
          ("until", Json.Float until);
          ("rate", Json.Float rate);
          ("max_extra", Json.Float max_extra);
        ]
  | Action { at_; kind; arg } ->
      Json.Obj
        [
          ("type", Json.String "action");
          ("at", Json.Float at_);
          ("kind", Json.String kind);
          ("arg", Json.String arg);
        ]

let plan_to_json p =
  Json.Obj
    [
      ("seed", Json.Int p.seed);
      ("events", Json.List (List.map json_of_event p.events));
    ]

let plan_to_string p = Json.to_string (plan_to_json p)

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "fault plan: missing or bad field %S" name)

let string_list j =
  match Json.get_list j with
  | None -> None
  | Some items ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | x :: rest -> (
            match Json.get_string x with
            | Some s -> go (s :: acc) rest
            | None -> None)
      in
      go [] items

let event_of_json j =
  let* ty = field "type" Json.get_string j in
  match ty with
  | "flap" ->
      let* link = field "link" Json.get_string j in
      let* down = field "down" Json.get_float j in
      let* up = field "up" Json.get_float j in
      Ok (Flap { link; down; up })
  | "partition" ->
      let* from_ = field "from" Json.get_float j in
      let* until = field "until" Json.get_float j in
      let* a = field "a" string_list j in
      let* b = field "b" string_list j in
      Ok (Partition { from_; until; a; b })
  | "latency-spike" ->
      let* link = field "link" Json.get_string j in
      let* from_ = field "from" Json.get_float j in
      let* until = field "until" Json.get_float j in
      let* extra = field "extra" Json.get_float j in
      Ok (Latency_spike { link; from_; until; extra })
  | "duplicate" ->
      let* from_ = field "from" Json.get_float j in
      let* until = field "until" Json.get_float j in
      let* rate = field "rate" Json.get_float j in
      Ok (Duplicate { from_; until; rate })
  | "reorder" ->
      let* from_ = field "from" Json.get_float j in
      let* until = field "until" Json.get_float j in
      let* rate = field "rate" Json.get_float j in
      let* max_extra = field "max_extra" Json.get_float j in
      Ok (Reorder { from_; until; rate; max_extra })
  | "action" ->
      let* at_ = field "at" Json.get_float j in
      let* kind = field "kind" Json.get_string j in
      let* arg = field "arg" Json.get_string j in
      Ok (Action { at_; kind; arg })
  | other -> Error (Printf.sprintf "fault plan: unknown event type %S" other)

let plan_of_json j =
  let* seed = field "seed" Json.get_int j in
  let* events = field "events" Json.get_list j in
  let rec go acc = function
    | [] -> Ok { seed; events = List.rev acc }
    | e :: rest ->
        let* ev = event_of_json e in
        go (ev :: acc) rest
  in
  go [] events

let plan_of_string s =
  match Json.of_string s with Error e -> Error e | Ok j -> plan_of_json j
