(* Process-level columns: GC activity per domain from [Runtime_events],
   CPU time, peak resident memory. *)

let max_rings = 3 (* caller domain + the two pool workers fleet_observed uses *)

type gc = {
  minor_pause_ns : int array;  (** per ring (domain slot) *)
  minor_begin : int array;
  mutable lost_events : int;
  mutable cursor : Runtime_events.cursor option;
  mutable callbacks : Runtime_events.Callbacks.t option;
}

let gc =
  {
    minor_pause_ns = Array.make max_rings 0;
    minor_begin = Array.make max_rings 0;
    lost_events = 0;
    cursor = None;
    callbacks = None;
  }

let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

(* Start the event ring and a cursor on this process.  Only the traced
   invocation does this; the end-to-end run pays nothing. *)
let start_events () =
  if gc.cursor = None then begin
  Runtime_events.start ();
  let runtime_begin ring ts phase =
    if ring < max_rings && phase = Runtime_events.EV_MINOR then
      gc.minor_begin.(ring) <- ts_ns ts
  in
  let runtime_end ring ts phase =
    if ring < max_rings && phase = Runtime_events.EV_MINOR then
      gc.minor_pause_ns.(ring) <-
        gc.minor_pause_ns.(ring) + (ts_ns ts - gc.minor_begin.(ring))
  in
  let lost_events _ n = gc.lost_events <- gc.lost_events + n in
  gc.callbacks <-
    Some
      (Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
         ());
  gc.cursor <- Some (Runtime_events.create_cursor None)
  end

(* Drain the rings.  Called between units of work so a ring never
   wraps. *)
let poll () =
  match (gc.cursor, gc.callbacks) with
  | Some cursor, Some callbacks ->
      ignore (Runtime_events.read_poll cursor callbacks None : int)
  | _ -> ()

let reset_events () =
  poll ();
  Array.fill gc.minor_pause_ns 0 max_rings 0;
  gc.lost_events <- 0

let minor_pause_s ring = float_of_int gc.minor_pause_ns.(ring) *. 1e-9

(* Process CPU time, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set from VmHWM, in MB (2^20 bytes). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
