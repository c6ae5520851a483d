type point = {
  t0 : float;
  t1 : float;
  last : float;
  mean : float;
  vmin : float;
  vmax : float;
  n : int;
}

(* Points are stored unboxed: six floats per point in [floats] (t0, t1,
   last, mean, vmin, vmax) and the sample count in [counts].  A fleet
   holds thousands of series, so one boxed record (and up to six boxed
   floats) per point would be most of the monitor's live heap, which the
   major collector walks on every cycle.  Both arrays start small and
   grow up to [capacity] slots; records are built only when a point is
   read.  Slot [len] holds the open window while [pending_n > 0]. *)
type t = {
  capacity : int;
  mutable floats : Float.Array.t;
  mutable counts : int array;
  mutable len : int;
  mutable stride : int;
  mutable pending_n : int;
}

let create ?(capacity = 256) () =
  if capacity < 2 then invalid_arg "Series.create: capacity < 2";
  let capacity = if capacity land 1 = 1 then capacity + 1 else capacity in
  let slots = Stdlib.min capacity 8 in
  {
    capacity;
    floats = Float.Array.make (6 * slots) 0.;
    counts = Array.make slots 0;
    len = 0;
    stride = 1;
    pending_n = 0;
  }

let point t i =
  let f = t.floats and o = 6 * i in
  {
    t0 = Float.Array.get f o;
    t1 = Float.Array.get f (o + 1);
    last = Float.Array.get f (o + 2);
    mean = Float.Array.get f (o + 3);
    vmin = Float.Array.get f (o + 4);
    vmax = Float.Array.get f (o + 5);
    n = t.counts.(i);
  }

let[@inline] set t i ~t0 ~t1 ~last ~mean ~vmin ~vmax ~n =
  let f = t.floats and o = 6 * i in
  Float.Array.set f o t0;
  Float.Array.set f (o + 1) t1;
  Float.Array.set f (o + 2) last;
  Float.Array.set f (o + 3) mean;
  Float.Array.set f (o + 4) vmin;
  Float.Array.set f (o + 5) vmax;
  t.counts.(i) <- n

(* Slot [i] := slots [a] and [b] aggregated, with the arithmetic of
   aggregating two points, so the same bits. *)
let[@inline] combine_slots t i a b =
  let f = t.floats and oa = 6 * a and ob = 6 * b in
  let na = t.counts.(a) and nb = t.counts.(b) in
  set t i ~t0:(Float.Array.get f oa) ~t1:(Float.Array.get f (ob + 1))
    ~last:(Float.Array.get f (ob + 2))
    ~mean:
      (((Float.Array.get f (oa + 3) *. float_of_int na)
       +. (Float.Array.get f (ob + 3) *. float_of_int nb))
      /. float_of_int (na + nb))
    ~vmin:(Float.min (Float.Array.get f (oa + 4)) (Float.Array.get f (ob + 4)))
    ~vmax:(Float.max (Float.Array.get f (oa + 5)) (Float.Array.get f (ob + 5)))
    ~n:(na + nb)

(* Room for slot [len] (the open window or the next committed point),
   and for [more] slots after it without growing again. *)
let reserve ?(more = 0) t =
  let slots = Array.length t.counts in
  if t.len + more >= slots then begin
    let grown =
      Stdlib.min t.capacity (Stdlib.max (2 * slots) (t.len + more + 1))
    in
    let floats = Float.Array.make (6 * grown) 0. in
    Float.Array.blit t.floats 0 floats 0 (6 * slots);
    let counts = Array.make grown 0 in
    Array.blit t.counts 0 counts 0 slots;
    t.floats <- floats;
    t.counts <- counts
  end

let compact t =
  let half = t.len / 2 in
  for i = 0 to half - 1 do
    combine_slots t i (2 * i) ((2 * i) + 1)
  done;
  t.len <- half;
  t.stride <- t.stride * 2

let length t = t.len + if t.pending_n > 0 then 1 else 0

(* Commit the point in slot [len]. *)
let commit t =
  t.len <- t.len + 1;
  if t.len = t.capacity then compact t

let flush_pending t =
  if t.pending_n > 0 then begin
    t.pending_n <- 0;
    commit t
  end

let append_series t src =
  let n = length src in
  if n > 0 then begin
    flush_pending t;
    reserve ~more:(n - 1) t;
    for i = 0 to n - 1 do
      reserve t;
      Float.Array.blit src.floats (6 * i) t.floats (6 * t.len) 6;
      t.counts.(t.len) <- src.counts.(i);
      commit t
    done
  end

let add t ~time v =
  let i = t.len in
  if t.pending_n = 0 then begin
    reserve t;
    set t i ~t0:time ~t1:time ~last:v ~mean:v ~vmin:v ~vmax:v ~n:1
  end
  else begin
    (* The open window aggregated with the one-sample point of [v]. *)
    let f = t.floats and o = 6 * i in
    let n = t.counts.(i) in
    set t i ~t0:(Float.Array.get f o) ~t1:time ~last:v
      ~mean:
        (((Float.Array.get f (o + 3) *. float_of_int n) +. (v *. 1.))
        /. float_of_int (n + 1))
      ~vmin:(Float.min (Float.Array.get f (o + 4)) v)
      ~vmax:(Float.max (Float.Array.get f (o + 5)) v)
      ~n:(n + 1)
  end;
  t.pending_n <- t.pending_n + 1;
  if t.pending_n >= t.stride then flush_pending t

let iter f t =
  for i = 0 to length t - 1 do
    f (point t i)
  done

let points t = List.init (length t) (point t)

let total t =
  let sum = ref 0 in
  for i = 0 to length t - 1 do
    sum := !sum + t.counts.(i)
  done;
  !sum

let stride t = t.stride

let last t =
  let n = length t in
  if n = 0 then None else Some (Float.Array.get t.floats ((6 * (n - 1)) + 2))
