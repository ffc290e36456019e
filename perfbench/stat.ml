(* Order statistics, a growable float buffer, and the seeded shuffle the
   workloads draw their inputs from. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two nearest order statistics. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let frac = pos -. float_of_int i in
      s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = percentile 50.0 a

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes them
   (its default "exclusive" method), so spreads read the same here and
   there.  Needs at least two values. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0)

type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.0; len = 0 }

let push b v =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  Array.unsafe_set b.data b.len v;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* Fisher-Yates over a copy, from a state seeded by the benchmark seed:
   the multiset is fixed, only its order depends on the seed. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
