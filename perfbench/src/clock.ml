(* Host wall clock.  Simulated time never goes through here. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
