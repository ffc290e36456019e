(* Spans around the benchmark's calls into the simulator.

   Recording is off except during the traced pass; [enter]/[leave] then
   cost one load and a branch, and allocate nothing.  While on, every span
   is kept in growable int arrays (name, parent, request id, start, end)
   and its duration is charged to its parent's child time, so self time
   (duration minus the part covered by child spans) is exact. *)

let on = ref false

(* Interned span names. *)
let names : string array ref = ref [||]

let name s =
  let rec find i =
    if i = Array.length !names then begin
      names := Array.append !names [| s |];
      i
    end
    else if String.equal !names.(i) s then i
    else find (i + 1)
  in
  find 0

(* Growable columns, one entry per closed span. *)
type column = { mutable data : int array; mutable len : int }

let column () = { data = Array.make 1024 0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let bigger = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  Array.unsafe_set c.data c.len v;
  c.len <- c.len + 1

let col_id = column ()
let col_name = column ()
let col_parent = column ()
let col_req = column ()
let col_start = column ()
let col_stop = column ()
let col_self = column ()

(* The open-span stack: span id, name, request id, start, and the child
   time accumulated so far. *)
let max_depth = 64
let depth = ref 0
let st_id = Array.make max_depth 0
let st_name = Array.make max_depth 0
let st_req = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let next_id = ref 0

(* Drop every recorded span and the memory that held them. *)
let reset () =
  List.iter
    (fun c ->
      c.data <- Array.make 1024 0;
      c.len <- 0)
    [ col_id; col_name; col_parent; col_req; col_start; col_stop; col_self ];
  depth := 0;
  next_id := 0

let recorded () = col_name.len

let enter_on id req =
  let d = !depth in
  if d = max_depth then failwith "span: nesting too deep";
  st_id.(d) <- !next_id;
  incr next_id;
  st_name.(d) <- id;
  st_req.(d) <- req;
  st_child.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- Clock.now_ns ()

let leave_on () =
  let stop = Clock.now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = stop - st_start.(d) in
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  (* Rows are written on close; ids are assigned on open, so a parent's id
     is smaller than its children's although its row comes after theirs. *)
  push col_id st_id.(d);
  push col_name st_name.(d);
  push col_parent (if d > 0 then st_id.(d - 1) else -1);
  push col_req st_req.(d);
  push col_start st_start.(d);
  push col_stop stop;
  push col_self (dur - st_child.(d))

(* [req] is the request (flow, connection or run) the call serves; -1 for
   none. *)
let[@inline] enter id req = if !on then enter_on id req
let[@inline] leave () = if !on then leave_on ()

(* ---- aggregates over the recorded spans ---- *)

let fold id f init =
  let acc = ref init in
  for i = 0 to col_name.len - 1 do
    if col_name.data.(i) = id then acc := f !acc i
  done;
  !acc

let self_ns id = fold id (fun n i -> n + col_self.data.(i)) 0

let durations id =
  let out = Stat.buf () in
  fold id
    (fun () i -> Stat.push out (float_of_int (col_stop.data.(i) - col_start.data.(i))))
    ();
  Stat.contents out

(* One line per span, in close order: [id parent name req start_ns end_ns
   self_ns], times relative to the start of the first span. *)
let write path =
  let t0 = ref max_int in
  for i = 0 to col_start.len - 1 do
    t0 := min !t0 col_start.data.(i)
  done;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns\n";
      for i = 0 to col_name.len - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" col_id.data.(i)
          col_parent.data.(i)
          !names.(col_name.data.(i))
          col_req.data.(i)
          (col_start.data.(i) - !t0)
          (col_stop.data.(i) - !t0)
          col_self.data.(i)
      done)
