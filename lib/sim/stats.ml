module Online = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity;
      total = 0. }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean
  let variance t =
    if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let count = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.count /. float_of_int count)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
           /. float_of_int count)
      in
      { count; mean; m2;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
        total = a.total +. b.total }
    end
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable total_count : int;
    mutable sum : float;
  }

  let create ?(buckets = 128) ~lo ~hi () =
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be > 0";
    { lo; hi; counts = Array.make buckets 0; total_count = 0; sum = 0. }

  let bucket_of t x =
    let buckets = Array.length t.counts in
    let raw =
      int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int buckets)
    in
    Stdlib.max 0 (Stdlib.min (buckets - 1) raw)

  let add t x =
    let i = bucket_of t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total_count <- t.total_count + 1;
    t.sum <- t.sum +. x

  let count t = t.total_count

  let bucket_midpoint t i =
    let buckets = float_of_int (Array.length t.counts) in
    t.lo +. ((float_of_int i +. 0.5) /. buckets *. (t.hi -. t.lo))

  let percentile t rank =
    if t.total_count = 0 then invalid_arg "Histogram.percentile: empty";
    if rank < 0. || rank > 1. then
      invalid_arg "Histogram.percentile: rank outside [0,1]";
    let threshold = rank *. float_of_int t.total_count in
    let rec scan i acc =
      if i >= Array.length t.counts - 1 then bucket_midpoint t i
      else
        let acc = acc + t.counts.(i) in
        if float_of_int acc >= threshold then bucket_midpoint t i
        else scan (i + 1) acc
    in
    scan 0 0

  let mean t = if t.total_count = 0 then nan else t.sum /. float_of_int t.total_count

  let merge a b =
    if a.lo <> b.lo || a.hi <> b.hi
       || Array.length a.counts <> Array.length b.counts
    then invalid_arg "Histogram.merge: incompatible bucket layouts";
    {
      lo = a.lo;
      hi = a.hi;
      counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
      total_count = a.total_count + b.total_count;
      sum = a.sum +. b.sum;
    }
end

module Series = struct
  type t = { mutable points : (float * float) list }
  (* Stored in reverse insertion order. *)

  let create () = { points = [] }
  let add t ~time value = t.points <- (time, value) :: t.points
  let to_list t = List.rev t.points

  let binned t ~bin =
    if bin <= 0. then invalid_arg "Series.binned: bin must be > 0";
    let table = Hashtbl.create 64 in
    List.iter
      (fun (time, value) ->
        let key = int_of_float (floor (time /. bin)) in
        let online =
          match Hashtbl.find_opt table key with
          | Some o -> o
          | None ->
              let o = Online.create () in
              Hashtbl.add table key o;
              o
        in
        Online.add online value)
      t.points;
    Hashtbl.fold
      (fun key online acc ->
        (float_of_int key *. bin, Online.mean online) :: acc)
      table []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

  let last t = match t.points with [] -> None | p :: _ -> Some p
end
