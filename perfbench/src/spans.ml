(* In-memory span recorder for the traced run.

   Structural spans (a fleet run, an aging epoch, a device construction,
   a replay) are kept one record each: name, start, end, parent and run
   id.  Per-operation calls below the device boundary are far too many
   to keep one by one (a traffic cell makes three device calls per op),
   so each is a {e leaf}: it is added to per-domain counters by kind and
   its duration is charged to the innermost open span, which is exactly
   what that span's self time needs.  Nothing here is called when
   [enabled] is false, apart from the one branch in [with_span]. *)

type leaf_kind = Write | Read | Trim | Bg_stats | Stream | Inject

let leaf_kinds = [ Write; Read; Trim; Bg_stats; Stream; Inject ]

let leaf_index = function
  | Write -> 0
  | Read -> 1
  | Trim -> 2
  | Bg_stats -> 3
  | Stream -> 4
  | Inject -> 5

let leaf_name = function
  | Write -> "device.write"
  | Read -> "device.read"
  | Trim -> "device.trim"
  | Bg_stats -> "device.bg_stats"
  | Stream -> "device.write_stream"
  | Inject -> "faults.inject"

type span = {
  id : int;
  name : string;
  run : int;
  domain : int;
  parent : int;  (** 0 for a root span *)
  start_ns : int;
  stop_ns : int;
  leaf_ns : int;  (** leaf calls made directly inside this span *)
}

type leaf = {
  mutable calls : int;
  mutable ns : int;
  mutable words : int;  (** minor words allocated inside the calls *)
  mutable units : int;  (** writes accepted by streams, faults injected *)
  mutable misses : int;  (** streams that reported [Stream_unsupported] *)
}

type open_span = {
  o_id : int;
  o_parent : int;
  o_name : string;
  o_start : int;
  mutable o_leaf_ns : int;
}

type domain_state = {
  dom : int;
  mutable stack : open_span list;
  mutable spans : span list;
  leaves : leaf array;
}

let fresh_leaf () = { calls = 0; ns = 0; words = 0; units = 0; misses = 0 }

(* Set only between runs, before any worker domain of the run exists;
   [Domain.spawn] publishes it to the workers. *)
let enabled = ref false
let run_id = Atomic.make 0
let next_id = Atomic.make 1
let lock = Mutex.create ()
let states : domain_state list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          dom = (Domain.self () :> int);
          stack = [];
          spans = [];
          leaves = Array.init (List.length leaf_kinds) (fun _ -> fresh_leaf ());
        }
      in
      Mutex.protect lock (fun () -> states := st :: !states);
      st)

let set_run r = Atomic.set run_id r

(* Drop everything recorded so far.  Only call with no worker domain
   recording. *)
let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun st ->
          st.stack <- [];
          st.spans <- [];
          Array.iteri (fun i _ -> st.leaves.(i) <- fresh_leaf ()) st.leaves)
        !states);
  Atomic.set next_id 1

let current () =
  if not !enabled then 0
  else match (Domain.DLS.get key).stack with o :: _ -> o.o_id | [] -> 0

let with_span ?parent name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match st.stack with o :: _ -> o.o_id | [] -> 0)
    in
    let o =
      {
        o_id = Atomic.fetch_and_add next_id 1;
        o_parent = parent;
        o_name = name;
        o_start = Clock.now_ns ();
        o_leaf_ns = 0;
      }
    in
    st.stack <- o :: st.stack;
    let finish () =
      let stop = Clock.now_ns () in
      st.stack <- List.tl st.stack;
      st.spans <-
        {
          id = o.o_id;
          name = o.o_name;
          run = Atomic.get run_id;
          domain = st.dom;
          parent = o.o_parent;
          start_ns = o.o_start;
          stop_ns = stop;
          leaf_ns = o.o_leaf_ns;
        }
        :: st.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Minor words as an int, so a caller can hold the start value without
   boxing a float. *)
let minor_words () = int_of_float (Gc.minor_words ())

(* Close a leaf call that started at [t0] with [w0] minor words. *)
let leaf kind ~t0 ~w0 ~units ~miss =
  let t1 = Clock.now_ns () in
  let w1 = minor_words () in
  let st = Domain.DLS.get key in
  let l = st.leaves.(leaf_index kind) in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (t1 - t0);
  l.words <- l.words + (w1 - w0);
  l.units <- l.units + units;
  if miss then l.misses <- l.misses + 1;
  match st.stack with
  | o :: _ -> o.o_leaf_ns <- o.o_leaf_ns + (t1 - t0)
  | [] -> ()

let spans () =
  Mutex.protect lock (fun () -> List.concat_map (fun st -> st.spans) !states)

let leaf_total kind =
  let total = fresh_leaf () in
  Mutex.protect lock (fun () ->
      List.iter
        (fun st ->
          let l = st.leaves.(leaf_index kind) in
          total.calls <- total.calls + l.calls;
          total.ns <- total.ns + l.ns;
          total.words <- total.words + l.words;
          total.units <- total.units + l.units;
          total.misses <- total.misses + l.misses)
        !states);
  total

(* Length of the union of half-open intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur_lo cur_hi = function
    | [] -> acc + (cur_hi - cur_lo)
    | (lo, hi) :: rest ->
        if lo > cur_hi then go (acc + (cur_hi - cur_lo)) lo hi rest
        else go acc cur_lo (Stdlib.max hi cur_hi) rest
  in
  match sorted with [] -> 0 | (lo, hi) :: rest -> go 0 lo hi rest

(* Self time of every span: its duration minus its own leaf calls minus
   the part of its interval that child spans cover.  Children on other
   domains run concurrently, so the covered part is a union of
   intervals, not a sum. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let covered =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun k ->
               let lo = Stdlib.max k.start_ns s.start_ns
               and hi = Stdlib.min k.stop_ns s.stop_ns in
               if hi > lo then Some (lo, hi) else None)
        |> union_length
      in
      (s, Stdlib.max 0 (s.stop_ns - s.start_ns - s.leaf_ns - covered)))
    spans

let to_jsonl spans =
  let t0 =
    List.fold_left (fun acc s -> Stdlib.min acc s.start_ns) max_int spans
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"run\":%d,\"domain\":%d,\"parent\":%d,\
         \"start_ns\":%d,\"end_ns\":%d,\"leaf_ns\":%d}\n"
        s.id s.name s.run s.domain s.parent (s.start_ns - t0) (s.stop_ns - t0)
        s.leaf_ns)
    (List.sort (fun a b -> compare a.id b.id) spans);
  List.iter
    (fun kind ->
      let l = leaf_total kind in
      Printf.bprintf b
        "{\"leaf\":%S,\"calls\":%d,\"ns\":%d,\"minor_words\":%d,\"units\":%d,\
         \"misses\":%d}\n"
        (leaf_name kind) l.calls l.ns l.words l.units l.misses)
    leaf_kinds;
  Buffer.contents b
