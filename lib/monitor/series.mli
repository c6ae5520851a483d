(** Fixed-capacity downsampling time series.

    A series holds at most [capacity] points no matter how many samples
    are added: samples are aggregated into an open point until [stride]
    of them accumulate, the point is committed, and whenever the buffer
    fills the committed points are compacted pairwise (length halves,
    stride doubles).  Memory is O(capacity) regardless of run length
    (it grows with the points held, up to [capacity]),
    resolution degrades gracefully from the oldest data first — the
    classic downsampling ring the monitor builds its timelines on.

    All operations are deterministic functions of the (time, value)
    sequence; nothing here reads a wall clock.  A series is owned by one
    domain at a time (the monitor samples it from the simulation task
    that owns it and merges across tasks in submission order). *)

type point = {
  t0 : float;  (** sample time of the first aggregated sample *)
  t1 : float;  (** sample time of the last aggregated sample *)
  last : float;  (** most recent raw value in the window *)
  mean : float;
  vmin : float;
  vmax : float;
  n : int;  (** raw samples aggregated into this point *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256; odd capacities round up to even (compaction
    works in pairs).  @raise Invalid_argument when [capacity < 2]. *)

val add : t -> time:float -> float -> unit
(** Record one sample.  O(1) amortized. *)

val append_series : t -> t -> unit
(** [append_series t src] commits every point of [src] (its open window
    included) to [t] as an already-aggregated point, oldest first, after
    flushing [t]'s open window; an empty [src] leaves [t] untouched.
    This is how {!Sampler.merge} transplants a sub-series without losing
    its aggregation. *)

val points : t -> point list
(** Committed points oldest first, then the open window if any. *)

val iter : (point -> unit) -> t -> unit
(** Apply a function to each point {!points} would return, in the same
    order, without building the list.  Points are stored unboxed, so
    each record is built as it is passed. *)

val length : t -> int
(** Number of points {!points} would return. *)

val total : t -> int
(** Raw samples absorbed over the series' lifetime. *)

val stride : t -> int
(** Raw samples per committed point at the current resolution. *)

val last : t -> float option
(** Most recent raw value, if any sample was ever added. *)
