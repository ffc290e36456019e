type t = int

let limit = 1 lsl 48

let of_int x =
  if x < 0 || x >= limit then
    invalid_arg (Printf.sprintf "Mac_addr.of_int: %d out of range" x);
  x

let to_int x = x

let of_string s =
  match String.split_on_char ':' s with
  | [ _; _; _; _; _; _ ] as parts ->
      List.fold_left
        (fun acc p ->
          match int_of_string_opt ("0x" ^ p) with
          | Some b when b >= 0 && b <= 255 && String.length p <= 2 ->
              (acc lsl 8) lor b
          | _ -> invalid_arg (Printf.sprintf "Mac_addr.of_string: %S" s))
        0 parts
  | _ -> invalid_arg (Printf.sprintf "Mac_addr.of_string: %S" s)

let to_string x =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((x lsr 40) land 0xff)
    ((x lsr 32) land 0xff)
    ((x lsr 24) land 0xff)
    ((x lsr 16) land 0xff)
    ((x lsr 8) land 0xff)
    (x land 0xff)

let broadcast = limit - 1
let is_broadcast x = x = broadcast
let equal = Int.equal

let counter = ref 0

let fresh () =
  incr counter;
  (* 0x02 prefix: locally administered, unicast. *)
  (0x02 lsl 40) lor (!counter land 0xff_ffff_ffff)
