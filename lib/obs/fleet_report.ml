(* Fleet-scale wear-imbalance analytics.

   One [observation] per device per run flows into an [Acc]: bounded
   quantile digests for wear, wear spread, worst RBER and retry rate;
   exact sums for mean/CV; grade counts; and an exact top-K of the
   worst devices.  Accumulators follow the scratch/merge discipline of
   the rest of the reduction path — each parallel chunk observes into
   its own [Acc.sub], the submission-order absorb loop merges them, so
   the built report is byte-identical at any job count. *)

module Health = Monitor.Health

type observation = {
  id : string;
  pec_max : int;
  pec_min : int;
  rber_worst : float;
  tolerable_rber : float;
  retries : int;
  escalations : int;
  reclaims : int;
  host_writes : int;
  alive : bool;
}

let retry_rate obs =
  if obs.host_writes <= 0 then 0.
  else float_of_int obs.retries /. float_of_int obs.host_writes

let grade thresholds obs =
  if not obs.alive then Health.Retired
  else if obs.tolerable_rber > 0. && obs.rber_worst >= obs.tolerable_rber then
    Health.Failing
  else if
    float_of_int obs.pec_max >= thresholds.Health.target_pec
    || retry_rate obs >= thresholds.Health.retry_rate_degraded
  then Health.Degraded
  else Health.Healthy

(* Worst-first ordering key: grade severity dominates, wear breaks ties
   within a grade.  The brute-force test scans with the same key. *)
let score thresholds obs =
  (float_of_int (Health.grade_rank (grade thresholds obs)) *. 1e6)
  +. float_of_int obs.pec_max

module Acc = struct
  type t = {
    top_k : int;
    thresholds : Health.thresholds;
    pec : Digest.t;
    spread : Digest.t;
    rber : Digest.t;
    retry : Digest.t;
    mutable devices : int;
    mutable pec_sum : float;
    mutable pec_sumsq : float;
    grades : int array; (* indexed by Health.grade_rank *)
    mutable retries : int;
    mutable escalations : int;
    mutable reclaims : int;
    mutable host_writes : int;
    worst : observation Topk.Topk.t;
  }

  let create ?(top_k = 10) ?(thresholds = Health.default_thresholds) () =
    {
      top_k;
      thresholds;
      pec = Digest.create ();
      spread = Digest.create ();
      rber = Digest.create ();
      retry = Digest.create ();
      devices = 0;
      pec_sum = 0.;
      pec_sumsq = 0.;
      grades = Array.make 4 0;
      retries = 0;
      escalations = 0;
      reclaims = 0;
      host_writes = 0;
      worst = Topk.Topk.create ~k:top_k ();
    }

  let sub t = create ~top_k:t.top_k ~thresholds:t.thresholds ()

  let observe t obs =
    t.devices <- t.devices + 1;
    let pec = float_of_int obs.pec_max in
    Digest.add t.pec pec;
    Digest.add t.spread (float_of_int (obs.pec_max - obs.pec_min));
    Digest.add t.rber obs.rber_worst;
    Digest.add t.retry (retry_rate obs);
    t.pec_sum <- t.pec_sum +. pec;
    t.pec_sumsq <- t.pec_sumsq +. (pec *. pec);
    let g = Health.grade_rank (grade t.thresholds obs) in
    t.grades.(g) <- t.grades.(g) + 1;
    t.retries <- t.retries + obs.retries;
    t.escalations <- t.escalations + obs.escalations;
    t.reclaims <- t.reclaims + obs.reclaims;
    t.host_writes <- t.host_writes + obs.host_writes;
    Topk.Topk.offer t.worst ~id:obs.id ~score:(score t.thresholds obs) obs

  let merge ~into src =
    into.devices <- into.devices + src.devices;
    Digest.merge ~into:into.pec src.pec;
    Digest.merge ~into:into.spread src.spread;
    Digest.merge ~into:into.rber src.rber;
    Digest.merge ~into:into.retry src.retry;
    into.pec_sum <- into.pec_sum +. src.pec_sum;
    into.pec_sumsq <- into.pec_sumsq +. src.pec_sumsq;
    Array.iteri (fun i n -> into.grades.(i) <- into.grades.(i) + n) src.grades;
    into.retries <- into.retries + src.retries;
    into.escalations <- into.escalations + src.escalations;
    into.reclaims <- into.reclaims + src.reclaims;
    into.host_writes <- into.host_writes + src.host_writes;
    Topk.Topk.merge ~into:into.worst src.worst

  let devices t = t.devices
end

(* Gini coefficient of the wear distribution from the compressed
   centroids: G = sum_ij w_i w_j |x_i - x_j| / (2 W^2 mean).  O(K^2)
   over at most [budget] centroids — independent of fleet size. *)
let gini_of_digest d =
  let cs = Digest.centroids d in
  let w_total = Digest.total_weight d and mu = Digest.mean d in
  if Array.length cs = 0 || w_total <= 0. || Float.is_nan mu || mu <= 0. then 0.
  else begin
    let acc = ref 0. in
    Array.iter
      (fun (xi, wi) ->
        Array.iter
          (fun (xj, wj) -> acc := !acc +. (wi *. wj *. Float.abs (xi -. xj)))
          cs)
      cs;
    !acc /. (2. *. w_total *. w_total *. mu)
  end

type stats = {
  mean : float;
  smin : float;
  smax : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let stats_of_digest d =
  {
    mean = Digest.mean d;
    smin = Digest.min d;
    smax = Digest.max d;
    p50 = Digest.quantile d 0.5;
    p90 = Digest.quantile d 0.9;
    p99 = Digest.quantile d 0.99;
  }

type t = {
  epoch : string;
  devices : int;
  grades : int array;
  pec : stats;
  spread : stats;
  rber : stats;
  retry : stats;
  cv : float;
  gini : float;
  fleet_retry_rate : float;
  fleet_escalation_rate : float;
  retries : int;
  escalations : int;
  reclaims : int;
  host_writes : int;
  worst : (observation * Health.grade) list;
}

let build ~epoch (acc : Acc.t) =
  let n = float_of_int acc.Acc.devices in
  let mean = if n > 0. then acc.Acc.pec_sum /. n else 0. in
  let var =
    if n > 0. then Float.max 0. ((acc.Acc.pec_sumsq /. n) -. (mean *. mean))
    else 0.
  in
  let cv = if mean > 0. then sqrt var /. mean else 0. in
  let per_write total =
    if acc.Acc.host_writes <= 0 then 0.
    else float_of_int total /. float_of_int acc.Acc.host_writes
  in
  {
    epoch;
    devices = acc.Acc.devices;
    grades = Array.copy acc.Acc.grades;
    pec = stats_of_digest acc.Acc.pec;
    spread = stats_of_digest acc.Acc.spread;
    rber = stats_of_digest acc.Acc.rber;
    retry = stats_of_digest acc.Acc.retry;
    cv;
    gini = gini_of_digest acc.Acc.pec;
    fleet_retry_rate = per_write acc.Acc.retries;
    fleet_escalation_rate = per_write acc.Acc.escalations;
    retries = acc.Acc.retries;
    escalations = acc.Acc.escalations;
    reclaims = acc.Acc.reclaims;
    host_writes = acc.Acc.host_writes;
    worst =
      List.map
        (fun (_, _, obs) -> (obs, grade acc.Acc.thresholds obs))
        (Topk.Topk.to_list acc.Acc.worst);
  }

let grade_count t g = t.grades.(Health.grade_rank g)

let f6 v = Printf.sprintf "%.6g" v
let fnan v = if Float.is_nan v then "-" else f6 v

let pp fmt t =
  Format.fprintf fmt "fleet report (epoch=%s, devices=%d)@." t.epoch t.devices;
  Format.fprintf fmt
    "  grades : healthy %d  degraded %d  failing %d  retired %d@."
    (grade_count t Health.Healthy)
    (grade_count t Health.Degraded)
    (grade_count t Health.Failing)
    (grade_count t Health.Retired);
  let pp_stats label (s : stats) =
    Format.fprintf fmt
      "  %s: mean %s  min %s  max %s  p50 %s  p90 %s  p99 %s@." label
      (fnan s.mean) (fnan s.smin) (fnan s.smax) (fnan s.p50) (fnan s.p90)
      (fnan s.p99)
  in
  pp_stats "pec    " t.pec;
  pp_stats "spread " t.spread;
  pp_stats "rber   " t.rber;
  pp_stats "retry/w" t.retry;
  Format.fprintf fmt "  balance: cv %s  gini %s@." (f6 t.cv) (f6 t.gini);
  Format.fprintf fmt
    "  totals : retries %d (%s/w)  escalations %d (%s/w)  reclaims %d  \
     host-writes %d@."
    t.retries (f6 t.fleet_retry_rate) t.escalations
    (f6 t.fleet_escalation_rate) t.reclaims t.host_writes;
  if t.worst <> [] then begin
    Format.fprintf fmt "  worst devices:@.";
    List.iteri
      (fun i (obs, g) ->
        Format.fprintf fmt
          "    %2d. %-24s %-8s pec %d/%d  rber %s (tol %s)  retries %d  esc \
           %d%s@."
          (i + 1) obs.id (Health.grade_label g) obs.pec_max obs.pec_min
          (f6 obs.rber_worst) (f6 obs.tolerable_rber) obs.retries
          obs.escalations
          (if obs.alive then "" else "  dead"))
      t.worst
  end

let to_jsonl t =
  let buf = Buffer.create 1024 in
  let str = Buffer.add_string buf in
  let key k =
    str ",\"";
    str k;
    str "\":"
  in
  let int k v =
    key k;
    Telemetry.Export.add_int buf v
  in
  let num k v =
    key k;
    if Float.is_nan v then str "null" else Telemetry.Export.add_g17 buf v
  in
  let text k v =
    key k;
    Telemetry.Export.add_json_string buf v
  in
  let stats label (s : stats) =
    num (label ^ "_mean") s.mean;
    num (label ^ "_min") s.smin;
    num (label ^ "_max") s.smax;
    num (label ^ "_p50") s.p50;
    num (label ^ "_p90") s.p90;
    num (label ^ "_p99") s.p99
  in
  str "{\"record\":\"fleet\"";
  text "epoch" t.epoch;
  int "devices" t.devices;
  int "healthy" (grade_count t Health.Healthy);
  int "degraded" (grade_count t Health.Degraded);
  int "failing" (grade_count t Health.Failing);
  int "retired" (grade_count t Health.Retired);
  stats "pec" t.pec;
  stats "spread" t.spread;
  stats "rber" t.rber;
  stats "retry" t.retry;
  num "cv" t.cv;
  num "gini" t.gini;
  int "retries" t.retries;
  int "escalations" t.escalations;
  int "reclaims" t.reclaims;
  int "host_writes" t.host_writes;
  num "retry_rate" t.fleet_retry_rate;
  num "escalation_rate" t.fleet_escalation_rate;
  str "}\n";
  List.iteri
    (fun i (obs, g) ->
      str "{\"record\":\"device\"";
      int "rank" (i + 1);
      text "id" obs.id;
      text "grade" (Health.grade_label g);
      int "pec_max" obs.pec_max;
      int "pec_min" obs.pec_min;
      num "rber_worst" obs.rber_worst;
      num "tolerable_rber" obs.tolerable_rber;
      int "retries" obs.retries;
      int "escalations" obs.escalations;
      int "reclaims" obs.reclaims;
      int "host_writes" obs.host_writes;
      key "alive";
      str (string_of_bool obs.alive);
      str "}\n")
    t.worst;
  Buffer.contents buf
