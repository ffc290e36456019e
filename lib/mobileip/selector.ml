open Netsim

type strategy =
  | Conservative_first
  | Aggressive_first
  | Rule_based of Policy_table.t

type event = Original_received | Retransmission_detected | Icmp_error

(* The ladder, least to most aggressive.  Out-IE is the floor: it is the
   one method that can be relied upon to work (§4). *)
let ladder = Grid.[ Out_IE; Out_DE; Out_DH ]

let ladder_index m =
  let rec go i = function
    | [] -> invalid_arg "Selector: Out_DT has no ladder position"
    | x :: rest -> if Grid.equal_out x m then i else go (i + 1) rest
  in
  go 0 ladder

type dst_state = {
  mutable current : Grid.out_method;
  mutable successes : int;
  mutable failures : int;
  mutable switch_count : int;
  mutable failed : Grid.out_method list;
  probing_enabled : bool;
      (* false = pinned (pessimistic rule): never escalate *)
  mutable last_used : int;
      (* recency stamp for LRU eviction; bumped on every lookup *)
}

type t = {
  strat : strategy;
  escalate_after : int;
  fallback_after : int;
  max_destinations : int;
  mutable tick : int;
  table : (Ipv4_addr.t, dst_state) Hashtbl.t;
}

let create ?(escalate_after = 4) ?(fallback_after = 2)
    ?(max_destinations = 1024) strat =
  if escalate_after < 1 || fallback_after < 1 then
    invalid_arg "Selector.create: thresholds must be positive";
  if max_destinations < 1 then
    invalid_arg "Selector.create: max_destinations must be positive";
  {
    strat;
    escalate_after;
    fallback_after;
    max_destinations;
    tick = 0;
    table = Hashtbl.create 16;
  }

let initial_state t dst =
  match t.strat with
  | Conservative_first ->
      {
        current = Grid.Out_IE;
        successes = 0;
        failures = 0;
        switch_count = 0;
        failed = [];
        probing_enabled = true;
        last_used = 0;
      }
  | Aggressive_first ->
      {
        current = Grid.Out_DH;
        successes = 0;
        failures = 0;
        switch_count = 0;
        failed = [];
        probing_enabled = false;
        (* fall back only; never re-escalate past a failure *)
        last_used = 0;
      }
  | Rule_based table -> (
      match Policy_table.mode_for table dst with
      | Policy_table.Optimistic ->
          {
            current = Grid.Out_DH;
            successes = 0;
            failures = 0;
            switch_count = 0;
            failed = [];
            probing_enabled = false;
            last_used = 0;
          }
      | Policy_table.Pessimistic ->
          (* The rule says this region always needs the conservative
             method: pin it. *)
          {
            current = Grid.Out_IE;
            successes = 0;
            failures = 0;
            switch_count = 0;
            failed = [];
            probing_enabled = false;
            last_used = 0;
          })

let stamp t s =
  t.tick <- t.tick + 1;
  s.last_used <- t.tick

(* The per-destination table is capped: at [max_destinations] live entries
   the least recently used one is evicted before inserting, so unbounded
   destination churn (long soak runs) cannot grow memory without bound.
   An evicted destination that comes back restarts from the strategy's
   initial method, exactly like one never seen. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun dst s acc ->
        match acc with
        | Some (_, best) when best.last_used <= s.last_used -> acc
        | _ -> Some (dst, s))
      t.table None
  in
  match victim with Some (dst, _) -> Hashtbl.remove t.table dst | None -> ()

let state_for t dst =
  match Hashtbl.find_opt t.table dst with
  | Some s ->
      stamp t s;
      s
  | None ->
      if Hashtbl.length t.table >= t.max_destinations then evict_lru t;
      let s = initial_state t dst in
      stamp t s;
      Hashtbl.add t.table dst s;
      s

let method_for t dst = (state_for t dst).current

let usable s m = not (List.exists (Grid.equal_out m) s.failed)

(* The next usable method strictly above [s.current] — escalation is
   stepwise ("tentatively try each of the more aggressive options",
   §7.1.2), skipping only methods already proven to fail. *)
let next_above s =
  let cur = ladder_index s.current in
  List.find_opt (fun m -> ladder_index m > cur && usable s m) ladder

(* The most aggressive usable method strictly below [s.current]
   (falling back toward Out-IE). *)
let next_below s =
  let cur = ladder_index s.current in
  let candidates =
    List.filter (fun m -> ladder_index m < cur && usable s m) ladder
  in
  match List.rev candidates with m :: _ -> Some m | [] -> None

(* Abandon the current method for good: remember it as failed and fall
   back to the next usable method below (Out-IE as the floor). *)
let abandon s =
  s.failures <- 0;
  if not (Grid.equal_out s.current Grid.Out_IE) then begin
    s.failed <- s.current :: s.failed;
    match next_below s with
    | Some m ->
        s.current <- m;
        s.switch_count <- s.switch_count + 1
    | None ->
        s.current <- Grid.Out_IE;
        s.switch_count <- s.switch_count + 1
  end

let report t ~dst ev =
  let s = state_for t dst in
  match ev with
  | Original_received ->
      s.failures <- 0;
      s.successes <- s.successes + 1;
      if s.probing_enabled && s.successes >= t.escalate_after then begin
        match next_above s with
        | Some m ->
            s.current <- m;
            s.successes <- 0;
            s.switch_count <- s.switch_count + 1
        | None -> ()
      end
  | Retransmission_detected ->
      s.successes <- 0;
      s.failures <- s.failures + 1;
      if s.failures >= t.fallback_after then abandon s
  | Icmp_error ->
      (* Authoritative negative feedback: a router told us the packet was
         refused.  No need to accumulate [fallback_after] retransmission
         hints — abandon the method immediately. *)
      s.successes <- 0;
      abandon s

let switches t ~dst =
  match Hashtbl.find_opt t.table dst with
  | Some s -> s.switch_count
  | None -> 0

let failed_methods t ~dst =
  match Hashtbl.find_opt t.table dst with Some s -> s.failed | None -> []

let converged t ~dst =
  match Hashtbl.find_opt t.table dst with
  | None -> false
  | Some s ->
      s.successes >= t.escalate_after
      && ((not s.probing_enabled) || next_above s = None)

let reset t ~dst = Hashtbl.remove t.table dst
let reset_all t = Hashtbl.reset t.table

let known_destinations t =
  List.sort Ipv4_addr.compare
    (Hashtbl.fold (fun dst _ acc -> dst :: acc) t.table [])
