(* The three workloads, each as one iteration: a set-up phase, then a
   measured phase that goes through the libraries' public entry points.
   The untraced iteration calls [Experiments.Fleet.run] and
   [Traffic.Replay.run] directly.  The traced iteration drives the same
   simulation with every device behind {!Proxy} and spans around the
   calls into each layer; for the fleets that means the per-device
   [Workload.Aging.run_epoch] loop of [Fleet.run], reproduced here with
   the same RNG stream split, chunking and merge order. *)

type kind = Experiments.Fleet.kind

type params = {
  workload : string;
  seed : int;
  kinds : kind list;  (** fleet designs, in run order *)
  devices : int;  (** per design *)
  dwpd : float;
  afr_per_day : float;  (** non-wear failure hazard of [Fleet.run] *)
  days : int;
  epoch_days : int;
  domains : int;  (** pool workers; 0 runs without a pool *)
  observed : bool;  (** live registry, monitor, fleet report *)
  tenants : int;
  ops : int;  (** trace length *)
  batch : int;
  qos : bool;
  preset : string;  (** fault preset of the chaos cells *)
}

let fleet_bulk ~seed =
  {
    workload = "fleet_bulk";
    seed;
    kinds = [ `Baseline; `Cvss; `Shrinks; `Regens ];
    devices = 24;
    dwpd = 1.;
    (* Non-wear failures off: an AFR death is one draw per epoch that
       stops a device's writes, so with Fleet.run's default hazard the
       host writes of a run, the throughput's numerator, depend on the
       seed.  On a 160-device fleet_observed, where 87 % of devices die
       that way in 5 years, throughput spread about 15 % across seeds. *)
    afr_per_day = 0.;
    days = 730;
    epoch_days = 365;
    domains = 0;
    observed = false;
    tenants = 0;
    ops = 0;
    batch = 0;
    qos = false;
    preset = "none";
  }

let fleet_observed ~seed =
  {
    (fleet_bulk ~seed) with
    workload = "fleet_observed";
    kinds = [ `Regens ];
    devices = 96;
    dwpd = 0.005;
    days = 5 * 365;
    epoch_days = 91;
    domains = Stdlib.min 2 (Domain.recommended_domain_count ());
    observed = true;
  }

let traffic_mixed ~seed =
  {
    (fleet_bulk ~seed) with
    workload = "traffic_mixed";
    kinds = [ `Baseline; `Cvss; `Regens ];
    devices = 0;
    dwpd = 0.;
    days = 0;
    epoch_days = 0;
    tenants = 64;
    ops = 100_000;
    batch = 16;
    qos = true;
    preset = "media";
  }

let of_name name ~seed =
  match name with
  | "fleet_bulk" -> Some (fleet_bulk ~seed)
  | "fleet_observed" -> Some (fleet_observed ~seed)
  | "traffic_mixed" -> Some (traffic_mixed ~seed)
  | _ -> None

let names = [ "fleet_bulk"; "fleet_observed"; "traffic_mixed" ]
let is_traffic p = p.ops > 0
let label = Experiments.Defaults.kind_label

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  cpu_s : float;  (** process CPU time *)
}

(* GC counters summed over every domain, live or joined, plus process
   CPU time: take one mark before a phase and diff a second against it
   after the phase (after its pool has been joined). *)
let mark () = (Gc.quick_stat (), Runtime.cpu_s ())

let since ((s0 : Gc.stat), cpu0) =
  let s1 = Gc.quick_stat () in
  {
    minor_words = s1.minor_words -. s0.minor_words;
    promoted_words = s1.promoted_words -. s0.promoted_words;
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
    cpu_s = Runtime.cpu_s () -. cpu0;
  }

(* What one iteration produced.  [counts] are the simulated counts the
   output check compares; [digests] fingerprint rendered artifacts whose
   bytes hold quantiles, so they are compared between runs of one build
   but never against stored values. *)
type outcome = {
  setup_s : float;
  measured_s : float;
  ops_done : int;  (** simulated host ops completed in the measured phase *)
  counts : (string * int) list;
  digests : (string * string) list;
  wa : float;  (** host-write-weighted write amplification; nan if unknown *)
  timeline_bytes : int;
  errors : string list;  (** invariant violations *)
  gc : gc_delta;  (** over the measured phase, all domains *)
}

(* Host-time samples of one unit of progress, in ns: a replay batch
   interval, or a fleet iteration's whole measured phase. *)
module Samples = struct
  type t = { mutable data : int array; mutable n : int }

  let create () = { data = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  (* Nearest-rank percentile. *)
  let percentile t q =
    if t.n = 0 then nan
    else begin
      let sorted = Array.sub t.data 0 t.n in
      Array.sort compare sorted;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      float_of_int sorted.(Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)))
    end
end

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.seconds_since t0)

(* ---- fleets ---------------------------------------------------------- *)

(* Alive devices never rise.  Nor does capacity, except on RegenS: a
   RegenS device turns the slack of tired pages into new minidisks
   (paper section 3.4), so its capacity can rise at an epoch boundary. *)
let monotone_errors name (r : Experiments.Fleet.result) =
  let rec go = function
    | (a : Experiments.Fleet.snapshot) :: (b :: _ as rest) ->
        (if b.alive > a.alive then
           [ Printf.sprintf "%s: alive rose on day %d" name b.day ]
         else [])
        @ (if r.kind <> `Regens && b.capacity_opages > a.capacity_opages then
             [ Printf.sprintf "%s: capacity rose on day %d" name b.day ]
           else [])
        @ go rest
    | _ -> []
  in
  go r.snapshots

let fleet_counts (r : Experiments.Fleet.result) =
  let name = label r.kind in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.snapshots in
  [
    (name ^ ".host_writes", r.total_host_writes);
    (name ^ ".wear_deaths", r.wear_deaths);
    (name ^ ".afr_deaths", r.afr_deaths);
    (name ^ ".alive_sum", sum (fun s -> s.Experiments.Fleet.alive));
    (name ^ ".capacity_sum", sum (fun s -> s.Experiments.Fleet.capacity_opages));
  ]

let fleet_errors p (r : Experiments.Fleet.result) =
  let name = label r.kind in
  let first_alive =
    match r.snapshots with s :: _ -> s.Experiments.Fleet.alive | [] -> -1
  in
  let last_alive =
    match List.rev r.snapshots with s :: _ -> s.Experiments.Fleet.alive | [] -> -1
  in
  monotone_errors name r
  @ (if first_alive <> p.devices then
       [ Printf.sprintf "%s: %d devices alive on day 0" name first_alive ]
     else [])
  @ (if r.wear_deaths + r.afr_deaths + last_alive <> p.devices then
       [ Printf.sprintf "%s: deaths and survivors do not add up" name ]
     else [])
  @
  if (not p.observed) && last_alive <> 0 then
    [ Printf.sprintf "%s: %d devices still alive at the end" name last_alive ]
  else []

(* The alert rules the CLI's monitor flags install. *)
let monitor_rules () =
  let tolerable =
    (Ftl.Ecc_profile.of_geometry Experiments.Defaults.geometry)
      .Ftl.Ecc_profile.tolerable_rber
  in
  let target = float_of_int Experiments.Defaults.target_pec in
  [
    Monitor.Alert.rule ~direction:Monitor.Alert.Below ~metric:"device_alive"
      ~fire:0.5 ~resolve:0.5 "device-dead";
    Monitor.Alert.rule ~metric:"flash_pec_max" ~fire:target
      ~resolve:(0.9 *. target) "wear-past-target";
    Monitor.Alert.rule ~metric:"flash_rber_worst" ~fire:(0.9 *. tolerable)
      ~resolve:(0.7 *. tolerable) "rber-near-tolerable";
  ]

let health_thresholds =
  {
    Monitor.Health.default_thresholds with
    Monitor.Health.target_pec = float_of_int Experiments.Defaults.target_pec;
  }

type fleet_env = {
  ctx : Experiments.Ctx.t;
  registry : Telemetry.Registry.t;
  monitor : Monitor.Engine.t option;
  obs : Obs.Fleet_report.Acc.t option;
  pool : Parallel.Pool.t option;
}

(* Set-up: the observed fleet's live registry, monitor, report
   accumulator and pool.  Before them, a one-device fleet of each design
   runs the workload's whole horizon, sequentially and unobserved, so
   that memoized codec and reliability tables exist and the aging code
   is warm before timing starts. *)
let fleet_setup p =
  List.iter
    (fun kind ->
      ignore
        (Experiments.Fleet.run ~devices:1 ~days:p.epoch_days ~dwpd:p.dwpd
           ~afr_per_day:p.afr_per_day ~seed:p.seed ~epoch_days:p.epoch_days
           kind
          : Experiments.Fleet.result))
    p.kinds;
  if not p.observed then
    {
      ctx = Experiments.Ctx.default;
      registry = Telemetry.Registry.null;
      monitor = None;
      obs = None;
      pool = None;
    }
  else begin
    let registry = Telemetry.Registry.create () in
    let monitor =
      Monitor.Engine.create ~sample_every:1 ~rules:(monitor_rules ()) ()
    in
    let obs = Obs.Fleet_report.Acc.create ~thresholds:health_thresholds () in
    let pool =
      if p.domains > 0 then Some (Parallel.Pool.create ~domains:p.domains)
      else None
    in
    {
      ctx = Experiments.Ctx.make ~registry ?pool ~monitor ~obs ();
      registry;
      monitor = Some monitor;
      obs = Some obs;
      pool;
    }
  end

(* Per-device totals the mirror reads through [Device_intf] after each
   device's life: what [Fleet.result] does not carry. *)
type dev_totals = {
  mutable d_accepted : int;  (** writes the devices acknowledged *)
  mutable d_host_writes : int;  (** [Device_intf.host_writes], summed *)
  mutable d_flash_writes : float;  (** host writes x write amplification *)
  mutable d_gc_runs : int;
  mutable d_relocated : int;
  mutable d_retries : int;
  mutable d_uncorrectable : int;  (** aging outcomes' uncorrectable reads *)
}

let fresh_totals () =
  {
    d_accepted = 0;
    d_host_writes = 0;
    d_flash_writes = 0.;
    d_gc_runs = 0;
    d_relocated = 0;
    d_retries = 0;
    d_uncorrectable = 0;
  }

type streams = { dev_rng : Sim.Rng.t; wl_rng : Sim.Rng.t; afr_rng : Sim.Rng.t }

type chunk_acc = {
  chunk : Parallel.Pool.chunk;
  sub : Telemetry.Registry.t;
  mon : Monitor.Engine.t option;
  cobs : Obs.Fleet_report.Acc.t option;
  alive_by_day : int array;
  cap_by_day : int array;
  mutable host_writes : int;
  mutable wear_deaths : int;
  mutable afr_deaths : int;
  totals : dev_totals;
}

(* [Experiments.Fleet.run]'s device loop, step for step, with the
   device behind the timing proxy and spans around device construction,
   each aging epoch and each monitor sample.  [parent] is the
   [fleet.run] span, which worker domains cannot see on their own
   stack. *)
let mirror_device p ~kind ~streams ~parent acc index =
  Spans.with_span ~parent "fleet.device" @@ fun () ->
  let days = p.days and epoch_days = p.epoch_days and dwpd = p.dwpd in
  let s = streams.(index) in
  let raw =
    Spans.with_span "device.create" (fun () ->
        Experiments.Defaults.make_device_rng ~registry:acc.sub kind
          ~rng:s.dev_rng)
  in
  let proxy = Proxy.create raw in
  let device = Proxy.pack proxy in
  let sink = Option.bind acc.mon Monitor.Engine.sink in
  let liveness =
    Option.map
      (fun _ ->
        ( Telemetry.Registry.gauge acc.sub
            ~help:"1 while the device still accepts writes" "device_alive",
          Telemetry.Registry.gauge acc.sub
            ~help:"Current logical capacity in oPages"
            "device_capacity_opages" ))
      acc.mon
  in
  let pattern =
    Workload.Pattern.uniform
      ~window:
        (Stdlib.max 1
           (int_of_float
              (0.85 *. float_of_int (Ftl.Device_intf.logical_capacity raw))))
      ~read_fraction:0.
  in
  let afr_dead = ref false and wear_dead = ref false in
  let alive () = (not !afr_dead) && (not !wear_dead) && Ftl.Device_intf.alive raw in
  let capacity () = if alive () then Ftl.Device_intf.logical_capacity raw else 0 in
  let sample day =
    match acc.mon with
    | Some mon when Monitor.Engine.due mon ~tick:day || day = 0 || day = days ->
        Spans.with_span "monitor.sample" (fun () ->
            Option.iter
              (fun (alive_g, cap_g) ->
                Telemetry.Registry.Gauge.set alive_g (if alive () then 1. else 0.);
                Telemetry.Registry.Gauge.set cap_g (float_of_int (capacity ())))
              liveness;
            Monitor.Engine.sample mon ~time:(float_of_int day) acc.sub)
    | _ -> ()
  in
  let record day =
    if alive () then begin
      acc.alive_by_day.(day) <- acc.alive_by_day.(day) + 1;
      acc.cap_by_day.(day) <- acc.cap_by_day.(day) + capacity ()
    end
  in
  record 0;
  sample 0;
  Telemetry.Trace.with_span ?sink
    ~args:[ ("device", string_of_int index) ]
    "fleet:device"
    (fun () ->
      let day = ref 1 in
      while !day <= days do
        let span_days = Stdlib.min epoch_days (days - !day + 1) in
        let upto = !day + span_days - 1 in
        if alive () then
          Telemetry.Trace.with_span ?sink
            ~args:[ ("day", string_of_int !day) ]
            "fleet:day"
            (fun () ->
              let p_fail =
                if span_days = 1 then p.afr_per_day
                else 1. -. ((1. -. p.afr_per_day) ** float_of_int span_days)
              in
              if Sim.Rng.chance s.afr_rng p_fail then afr_dead := true
              else begin
                let quota =
                  if span_days = 1 then
                    int_of_float (dwpd *. float_of_int (capacity ()))
                  else
                    int_of_float
                      (dwpd *. float_of_int (capacity ())
                      *. float_of_int span_days)
                in
                let outcome =
                  Spans.with_span "aging.run_epoch" (fun () ->
                      Workload.Aging.run_epoch ~path:Workload.Aging.Auto
                        ~rng:s.wl_rng ~pattern ~device ~quota ())
                in
                acc.host_writes <- acc.host_writes + outcome.Workload.Aging.host_writes;
                acc.totals.d_uncorrectable <-
                  acc.totals.d_uncorrectable
                  + outcome.Workload.Aging.uncorrectable_reads;
                if outcome.Workload.Aging.died then wear_dead := true
              end);
        record upto;
        sample upto;
        day := upto + 1
      done);
  if !wear_dead then acc.wear_deaths <- acc.wear_deaths + 1;
  if !afr_dead then acc.afr_deaths <- acc.afr_deaths + 1;
  let hw = Ftl.Device_intf.host_writes raw in
  let bg = Ftl.Device_intf.bg_stats raw in
  let t = acc.totals in
  t.d_accepted <- t.d_accepted + proxy.Proxy.accepted;
  t.d_host_writes <- t.d_host_writes + hw;
  if hw > 0 then
    t.d_flash_writes <-
      t.d_flash_writes +. (float_of_int hw *. Ftl.Device_intf.write_amplification raw);
  t.d_gc_runs <- t.d_gc_runs + bg.Ftl.Device_intf.gc_runs;
  t.d_relocated <- t.d_relocated + bg.Ftl.Device_intf.relocated_opages;
  t.d_retries <- t.d_retries + bg.Ftl.Device_intf.read_retries;
  Option.iter
    (fun o ->
      let w = Ftl.Device_intf.wear_stats raw in
      Obs.Fleet_report.Acc.observe o
        {
          Obs.Fleet_report.id = Printf.sprintf "%s-%d" (label kind) index;
          pec_max = w.Ftl.Device_intf.pec_max;
          pec_min = w.Ftl.Device_intf.pec_min;
          rber_worst = w.Ftl.Device_intf.rber_worst;
          tolerable_rber = w.Ftl.Device_intf.tolerable_rber;
          retries = bg.Ftl.Device_intf.read_retries;
          escalations = bg.Ftl.Device_intf.live_repair_attempts;
          reclaims = bg.Ftl.Device_intf.read_reclaims;
          host_writes = hw;
          alive = alive ();
        })
    acc.cobs

(* [Experiments.Fleet.run] with the mirrored device loop. *)
let mirror_fleet p env kind =
  Spans.with_span "fleet.run" @@ fun () ->
  let parent = Spans.current () in
  let ctx = env.ctx and devices = p.devices and days = p.days in
  let root = Sim.Rng.create p.seed in
  let streams =
    Array.init devices (fun _ ->
        let dev_rng = Sim.Rng.split root in
        let wl_rng = Sim.Rng.split root in
        let afr_rng = Sim.Rng.split root in
        { dev_rng; wl_rng; afr_rng })
  in
  let chunk_size =
    if Option.is_some ctx.Experiments.Ctx.monitor then 1
    else Stdlib.max 1 ((devices + 63) / 64)
  in
  let outcomes =
    Parallel.Pool.accumulate ctx.Experiments.Ctx.pool ~chunk_size ~n:devices
      {
        Parallel.Pool.Accumulator.create =
          (fun chunk ->
            {
              chunk;
              sub = Experiments.Ctx.sub_registry ctx;
              mon = Experiments.Ctx.sub_monitor ctx;
              cobs = Experiments.Ctx.sub_obs ctx;
              alive_by_day = Array.make (days + 1) 0;
              cap_by_day = Array.make (days + 1) 0;
              host_writes = 0;
              wear_deaths = 0;
              afr_deaths = 0;
              totals = fresh_totals ();
            });
        item = mirror_device p ~kind ~streams ~parent;
        finish = Fun.id;
      }
  in
  let kind_tag = label kind in
  List.iter
    (fun o ->
      Experiments.Ctx.absorb ctx o.sub;
      Experiments.Ctx.absorb_monitor ctx
        ~labels:[ ("device", Printf.sprintf "%s-%d" kind_tag o.chunk.Parallel.Pool.lo) ]
        o.mon;
      Experiments.Ctx.absorb_obs ctx o.cobs)
    outcomes;
  let recorded_days =
    let rec boundaries day acc =
      if day > days then List.rev acc
      else
        let upto = Stdlib.min days (day + p.epoch_days - 1) in
        boundaries (upto + 1) (upto :: acc)
    in
    0 :: boundaries 1 []
  in
  let snapshots =
    List.map
      (fun day ->
        let alive = ref 0 and capacity = ref 0 in
        List.iter
          (fun o ->
            alive := !alive + o.alive_by_day.(day);
            capacity := !capacity + o.cap_by_day.(day))
          outcomes;
        { Experiments.Fleet.day; alive = !alive; capacity_opages = !capacity })
      recorded_days
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let totals = fresh_totals () in
  List.iter
    (fun o ->
      let t = o.totals in
      totals.d_accepted <- totals.d_accepted + t.d_accepted;
      totals.d_host_writes <- totals.d_host_writes + t.d_host_writes;
      totals.d_flash_writes <- totals.d_flash_writes +. t.d_flash_writes;
      totals.d_gc_runs <- totals.d_gc_runs + t.d_gc_runs;
      totals.d_relocated <- totals.d_relocated + t.d_relocated;
      totals.d_retries <- totals.d_retries + t.d_retries;
      totals.d_uncorrectable <- totals.d_uncorrectable + t.d_uncorrectable)
    outcomes;
  ( {
      Experiments.Fleet.kind;
      devices;
      snapshots;
      total_host_writes = sum (fun o -> o.host_writes);
      wear_deaths = sum (fun o -> o.wear_deaths);
      afr_deaths = sum (fun o -> o.afr_deaths);
    },
    totals )

let fleet_iteration ~traced ~(batches : Samples.t) ~poll p =
  let env, setup_s = timed (fun () -> fleet_setup p) in
  let m0 = mark () in
  let t0 = Clock.now_ns () in
  let results =
    Spans.with_span "bench.measured" (fun () ->
        let runs =
          List.map
            (fun kind ->
              let r =
                if traced then
                  let r, totals = mirror_fleet p env kind in
                  (r, Some totals)
                else
                  ( Experiments.Fleet.run ~devices:p.devices ~days:p.days
                      ~dwpd:p.dwpd ~afr_per_day:p.afr_per_day ~seed:p.seed ~ctx:env.ctx
                      ~epoch_days:p.epoch_days kind,
                    None )
              in
              poll ();
              r)
            p.kinds
        in
        let artifacts =
          match (env.monitor, env.obs) with
          | Some monitor, Some obs ->
              let timeline =
                Spans.with_span "monitor.timeline" (fun () ->
                    Monitor.Timeline.to_csv (Monitor.Engine.sampler monitor))
              in
              let snapshot =
                Spans.with_span "telemetry.export" (fun () ->
                    Telemetry.Export.to_prometheus
                      (Telemetry.Registry.snapshot env.registry))
              in
              let report =
                Spans.with_span "obs.report" (fun () ->
                    Obs.Fleet_report.to_jsonl
                      (Obs.Fleet_report.build
                         ~epoch:(Printf.sprintf "%dd" p.days)
                         obs))
              in
              Some (timeline, snapshot, report, Monitor.Engine.samples monitor)
          | _ -> None
        in
        (runs, artifacts))
  in
  Samples.add batches (Clock.now_ns () - t0);
  let measured_s = Clock.seconds_since t0 in
  Option.iter Parallel.Pool.shutdown env.pool;
  let gc = since m0 in
  let runs, artifacts = results in
  let fleet = List.map fst runs in
  let ops_done =
    List.fold_left (fun acc (r : Experiments.Fleet.result) -> acc + r.total_host_writes) 0 fleet
  in
  let totals = List.filter_map snd runs in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 totals in
  let mirror_counts =
    if totals = [] then []
    else
      [
        ("device.accepted_writes", sum (fun t -> t.d_accepted));
        ("device.host_writes", sum (fun t -> t.d_host_writes));
        ("device.gc_runs", sum (fun t -> t.d_gc_runs));
        ("device.relocated_opages", sum (fun t -> t.d_relocated));
        ("device.read_retries", sum (fun t -> t.d_retries));
        ("device.uncorrectable_reads", sum (fun t -> t.d_uncorrectable));
      ]
  in
  let artifact_counts, digests, timeline_bytes =
    match artifacts with
    | Some (timeline, snapshot, report, samples) ->
        ( [ ("monitor.samples", samples) ],
          [
            ("timeline", Digest.to_hex (Digest.string timeline));
            ("metrics", Digest.to_hex (Digest.string snapshot));
            ("fleet_report", Digest.to_hex (Digest.string report));
          ],
          String.length timeline )
    | None -> ([], [], 0)
  in
  let errors =
    List.concat_map (fleet_errors p) fleet
    @
    if totals <> [] && sum (fun t -> t.d_accepted) <> ops_done then
      [
        Printf.sprintf
          "fleet host writes %d differ from the sum over devices %d" ops_done
          (sum (fun t -> t.d_accepted));
      ]
    else []
  in
  {
    setup_s;
    measured_s;
    ops_done;
    counts = List.concat_map fleet_counts fleet @ artifact_counts @ mirror_counts;
    digests;
    wa =
      (if totals = [] then nan
       else
         List.fold_left (fun acc t -> acc +. t.d_flash_writes) 0. totals
         /. float_of_int (Stdlib.max 1 (sum (fun t -> t.d_host_writes))));
    timeline_bytes;
    errors;
    gc;
  }

(* ---- traffic ----------------------------------------------------------- *)

let window = 1024 (* Traffic_run's generator window *)

let traffic_spec p =
  { Traffic.Gen.default_spec with Traffic.Gen.tenants = p.tenants; ops = p.ops; window }

let media_only plan =
  List.filter
    (function
      | Faults.Plan.Transient_flips _ | Faults.Plan.Sticky_pages _
      | Faults.Plan.Silent_corruption _ ->
          true
      | _ -> false)
    plan

(* The traffic experiment's seed offsets per design. *)
let kind_index = function `Baseline -> 0 | `Cvss -> 1 | `Regens -> 2 | `Shrinks -> 3

(* One cell's device and chip, as the traffic experiment builds them. *)
let make_cell_device kind ~rng =
  let geometry = Experiments.Defaults.geometry
  and model = Experiments.Defaults.model in
  match kind with
  | `Baseline ->
      let d = Ftl.Baseline_ssd.create ~geometry ~model ~rng () in
      ( Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d),
        Ftl.Engine.chip (Ftl.Baseline_ssd.engine d) )
  | `Cvss ->
      let d = Ftl.Cvss.create ~geometry ~model ~rng () in
      ( Ftl.Device_intf.Packed ((module Ftl.Cvss), d),
        Ftl.Engine.chip (Ftl.Cvss.engine d) )
  | (`Shrinks | `Regens) as k ->
      let mode =
        if k = `Regens then Salamander.Device.Regen_s else Salamander.Device.Shrink_s
      in
      let d =
        Salamander.Device.create
          ~config:(Experiments.Defaults.salamander_config ~mode)
          ~geometry ~model ~rng ()
      in
      (Salamander.Device.pack d, Ftl.Engine.chip (Salamander.Device.engine d))

type cell = {
  name : string;
  chaos : bool;
  device : Ftl.Device_intf.packed;  (** behind the proxy when traced *)
  raw : Ftl.Device_intf.packed;  (** for introspection after the replay *)
  proxy : Proxy.t option;
  chip : Flash.Chip.t;
  injector : Faults.Injector.t option;
  population : Traffic.Tenant.t;
  prefilled : int;
}

(* Set-up of one cell: device, prefill of the trace window, tenant
   population and fault injector, seeded as the traffic experiment
   seeds them. *)
let cell_setup p ~traced (kind, chaos) =
  let k = kind_index kind in
  let device, chip =
    Spans.with_span "device.create" (fun () ->
        make_cell_device kind ~rng:(Sim.Rng.create (p.seed + (17 * (k + 1)))))
  in
  let prefilled =
    Spans.with_span "traffic.prefill" (fun () ->
        let n = Stdlib.min window (Ftl.Device_intf.logical_capacity device) in
        fst (Ftl.Device_intf.write_many device (Array.init n (fun i -> (i, i)))))
  in
  let population =
    Traffic.Tenant.create ~profiles:Traffic.Gen.default_spec.Traffic.Gen.profiles
      ~tenants:p.tenants ()
  in
  let proxy = if traced then Some (Proxy.create device) else None in
  let injector =
    if chaos then
      Some
        (Faults.Injector.create
           ~rng:(Sim.Rng.create (p.seed + 1000 + k))
           (media_only (List.assoc p.preset Faults.Plan.presets)))
    else None
  in
  {
    name = label kind ^ if chaos then "+chaos" else "";
    chaos;
    device = (match proxy with Some px -> Proxy.pack px | None -> device);
    raw = device;
    proxy;
    chip;
    injector;
    population;
    prefilled;
  }

let replay_cell p ~(batches : Samples.t) ~trace cell =
  let last = ref 0 in
  let inject inj ~batch =
    List.iter
      (function
        | Faults.Injector.Inject { block; page; fault } ->
            Flash.Chip.inject cell.chip ~block ~page fault
        | Faults.Injector.Kill_device _ | Faults.Injector.Power_cut -> ())
      (Faults.Injector.step inj ~geometry:(Flash.Chip.geometry cell.chip)
         ~step:batch)
  in
  let on_batch ~batch =
    let now = Clock.now_ns () in
    if !last > 0 then Samples.add batches (now - !last);
    last := now;
    match cell.injector with
    | None -> ()
    | Some inj when !Spans.enabled ->
        let before = Faults.Injector.total inj in
        let w0 = Spans.minor_words () in
        inject inj ~batch;
        Spans.leaf Spans.Inject ~t0:now ~w0
          ~units:(Faults.Injector.total inj - before)
          ~miss:false
    | Some inj -> inject inj ~batch
  in
  let outcome =
    Spans.with_span "replay.run" (fun () ->
        Traffic.Replay.run
          ~config:{ Traffic.Replay.default_config with Traffic.Replay.batch = p.batch }
          ?qos:(if p.qos then Some Traffic.Qos.default_config else None)
          ~intensity:(fun ~op -> Traffic.Gen.intensity (traffic_spec p) ~op)
          ~on_batch ~population:cell.population ~trace ~device:cell.device ())
  in
  if !last > 0 then Samples.add batches (Clock.now_ns () - !last);
  outcome

let cell_counts cell (o : Traffic.Replay.outcome) =
  let bg = Ftl.Device_intf.bg_stats cell.raw in
  let c key v = (cell.name ^ "." ^ key, v) in
  [
    c "issued" o.issued;
    c "completed" o.completed;
    c "read_errors" o.read_errors;
    c "unmapped_reads" o.unmapped_reads;
    c "write_errors" o.write_errors;
    c "throttled_ops" o.throttled_ops;
    c "slo_violations" o.slo_violations;
    c "died" (Bool.to_int o.died);
    c "prefilled" cell.prefilled;
    c "host_writes" (Ftl.Device_intf.host_writes cell.raw);
    c "gc_runs" bg.Ftl.Device_intf.gc_runs;
    c "relocated_opages" bg.Ftl.Device_intf.relocated_opages;
    c "read_retries" bg.Ftl.Device_intf.read_retries;
    c "read_reclaims" bg.Ftl.Device_intf.read_reclaims;
    c "injected"
      (match cell.injector with Some i -> Faults.Injector.total i | None -> 0);
  ]
  @
  match cell.proxy with
  | Some px -> [ c "accepted_writes" (cell.prefilled + px.Proxy.accepted) ]
  | None -> []

let cells p =
  List.concat_map (fun kind -> [ (kind, false); (kind, true) ]) p.kinds

let traffic_iteration ~traced ~(batches : Samples.t) ~poll p =
  let (trace, cells), setup_s =
    timed (fun () ->
        let trace =
          Spans.with_span "traffic.gen" (fun () ->
              Traffic.Gen.generate (traffic_spec p) ~seed:p.seed)
        in
        (trace, List.map (cell_setup p ~traced) (cells p)))
  in
  let m0 = mark () in
  let t0 = Clock.now_ns () in
  let outcomes =
    Spans.with_span "bench.measured" (fun () ->
        List.map
          (fun cell ->
            let o = replay_cell p ~batches ~trace cell in
            poll ();
            (cell, o))
          cells)
  in
  let measured_s = Clock.seconds_since t0 in
  let gc = since m0 in
  let ops_done =
    List.fold_left (fun acc (_, o) -> acc + o.Traffic.Replay.completed) 0 outcomes
  in
  let host_writes, flash_writes =
    List.fold_left
      (fun (h, f) (cell, _) ->
        let hw = Ftl.Device_intf.host_writes cell.raw in
        if hw = 0 then (h, f)
        else (h + hw, f +. (float_of_int hw *. Ftl.Device_intf.write_amplification cell.raw)))
      (0, 0.) outcomes
  in
  let errors =
    List.concat_map
      (fun (cell, (o : Traffic.Replay.outcome)) ->
        (if o.completed <> o.issued then
           [ Printf.sprintf "%s: completed %d of %d issued" cell.name o.completed o.issued ]
         else [])
        @ (if o.died then [ cell.name ^ ": device died" ] else [])
        @
        if o.issued <> Workload.Trace.length trace then
          [ Printf.sprintf "%s: issued %d of %d trace ops" cell.name o.issued
              (Workload.Trace.length trace) ]
        else [])
      outcomes
  in
  {
    setup_s;
    measured_s;
    ops_done;
    counts = List.concat_map (fun (cell, o) -> cell_counts cell o) outcomes;
    digests = [];
    wa = flash_writes /. float_of_int (Stdlib.max 1 host_writes);
    timeline_bytes = 0;
    errors;
    gc;
  }

(* The set-up phase alone, torn down again: what [setup_s] samples
   besides the iterations' own set-ups. *)
let setup_only p =
  snd
    (timed (fun () ->
         if is_traffic p then begin
           let trace = Traffic.Gen.generate (traffic_spec p) ~seed:p.seed in
           ignore (Workload.Trace.length trace);
           List.iter (fun c -> ignore (cell_setup p ~traced:false c : cell)) (cells p)
         end
         else Option.iter Parallel.Pool.shutdown (fleet_setup p).pool))

let iteration ~traced ~batches ~poll p =
  if is_traffic p then traffic_iteration ~traced ~batches ~poll p
  else fleet_iteration ~traced ~batches ~poll p

(* Sum of the counts whose key ends in [suffix]. *)
let count_sum counts suffix =
  List.fold_left
    (fun acc (k, v) -> if String.ends_with ~suffix k then acc + v else acc)
    0 counts
