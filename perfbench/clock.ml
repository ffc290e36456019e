(* Host clocks.  Wall time comes from bechamel's monotonic clock
   (CLOCK_MONOTONIC, nanoseconds); CPU time is the process's, from
   [Sys.time]. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let cpu_s = Sys.time
