(* One benchmark run: iterate a workload for a number of host seconds,
   check its simulated output, and report the end-to-end metrics (or,
   traced, the per-layer metrics) by name with their units. *)

type metric = { name : string; value : float; unit : string }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;
  manifest : string;  (** JSON: seed, workload parameters, host *)
  spans : string option;  (** JSONL of the traced run *)
}

type phase = {
  outcomes : Workloads.outcome list;
  batches : Workloads.Samples.t;
  setups : float list;  (** extra set-up samples, see [setup_probes] *)
}

(* Set-up is short next to an iteration, so the run times it this many
   more times, alone, before iterating. *)
let setup_probes = 8

(* Traced iterations per traced run: per-layer figures are per
   iteration, and the traced run should not double the run's length. *)
let traced_iterations = 3

(* Iterate until [stop iterations measured_seconds] holds. *)
let run_phase ~traced ~stop ~probes p =
  let setups = List.init probes (fun _ -> Workloads.setup_only p) in
  let batches = Workloads.Samples.create () in
  let rec loop acc i measured =
    if stop i measured then List.rev acc
    else begin
      Spans.set_run i;
      let o = Workloads.iteration ~traced ~batches ~poll:Runtime.poll p in
      loop (o :: acc) (i + 1) (measured +. o.Workloads.measured_s)
    end
  in
  let outcomes = loop [] 0 0. in
  { outcomes; batches; setups }

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let end_to_end (ph : phase) ~ok_frac =
  let os = ph.outcomes in
  let ops = float_of_int (isum (fun o -> o.Workloads.ops_done) os) in
  [
    {
      name = "sim_ops_per_s";
      value = ratio ops (fsum (fun o -> o.Workloads.measured_s) os);
      unit = "1/s";
    };
    {
      name = "setup_s";
      value = median (ph.setups @ List.map (fun o -> o.Workloads.setup_s) os);
      unit = "s";
    };
    {
      name = "minor_words_per_op";
      value = ratio (fsum (fun o -> o.Workloads.gc.minor_words) os) ops;
      unit = "words/op";
    };
    { name = "peak_rss_mb"; value = Runtime.peak_rss_mb (); unit = "MB" };
    {
      name = "batch_us_p50";
      value = Workloads.Samples.percentile ph.batches 0.5 /. 1e3;
      unit = "us";
    };
    {
      name = "batch_us_p95";
      value = Workloads.Samples.percentile ph.batches 0.95 /. 1e3;
      unit = "us";
    };
    { name = "ok_frac"; value = ok_frac; unit = "frac" };
  ]

(* Self time per span name, summed over the traced phase. *)
let span_totals () =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let ns, n = Option.value ~default:(0, 0) (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (ns + self, n + 1))
    (Spans.self_times (Spans.spans ()));
  totals

let per_layer p ~(untraced : phase) ~(traced : phase) =
  let n = float_of_int (List.length traced.outcomes) in
  let per_iter x = x /. n in
  let totals = span_totals () in
  let self name =
    per_iter
      (float_of_int (fst (Option.value ~default:(0, 0) (Hashtbl.find_opt totals name)))
      *. 1e-9)
  in
  let spans name =
    per_iter (float_of_int (snd (Option.value ~default:(0, 0) (Hashtbl.find_opt totals name))))
  in
  let leaf kind = Spans.leaf_total kind in
  let calls kind = per_iter (float_of_int (leaf kind).Spans.calls) in
  let mean_ns kind =
    let l = leaf kind in
    ratio (float_of_int l.Spans.ns) (float_of_int l.Spans.calls)
  in
  let stream = leaf Spans.Stream in
  let device_kinds = Spans.[ Write; Read; Trim; Bg_stats; Stream ] in
  let device_words = isum (fun k -> (leaf k).Spans.words) device_kinds in
  let device_calls = isum (fun k -> (leaf k).Spans.calls) device_kinds in
  let first = List.hd traced.outcomes in
  let counts = first.Workloads.counts in
  let sum = Workloads.count_sum counts in
  let get key = Option.value ~default:0 (List.assoc_opt key counts) in
  let traffic = Workloads.is_traffic p in
  let u = untraced.outcomes in
  let u_n = float_of_int (List.length u) in
  let u_ops = float_of_int (isum (fun o -> o.Workloads.ops_done) u) in
  let u_wall = fsum (fun o -> o.Workloads.measured_s) u in
  let gc f = fsum (fun o -> f o.Workloads.gc) u in
  let m name value unit = { name; value; unit } in
  let c name value = m name value "count" in
  [
    m "aging.self_s" (self "aging.run_epoch") "s";
    c "aging.epochs" (spans "aging.run_epoch");
    m "device.create_s" (self "device.create") "s";
    c "device.creates" (spans "device.create");
    c "device.stream_calls" (calls Spans.Stream);
    m "device.stream_s" (per_iter (float_of_int stream.Spans.ns *. 1e-9)) "s";
    m "device.writes_per_stream_call"
      (ratio (float_of_int stream.Spans.units) (float_of_int stream.Spans.calls))
      "writes/call";
    m "device.stream_unsupported_frac"
      (ratio (float_of_int stream.Spans.misses) (float_of_int stream.Spans.calls))
      "frac";
    c "device.write_calls" (calls Spans.Write);
    m "device.write_ns" (mean_ns Spans.Write) "ns/call";
    c "device.read_calls" (calls Spans.Read);
    m "device.read_ns" (mean_ns Spans.Read) "ns/call";
    c "device.bg_stats_calls" (calls Spans.Bg_stats);
    m "device.bg_stats_ns" (mean_ns Spans.Bg_stats) "ns/call";
    m "device.minor_words_per_call"
      (ratio (float_of_int device_words) (float_of_int device_calls))
      "words/call";
    m "traffic.gen_s" (self "traffic.gen") "s";
    m "traffic.prefill_s" (self "traffic.prefill") "s";
    m "replay.self_s" (self "replay.run") "s";
    m "faults.inject_s"
      (per_iter (float_of_int (leaf Spans.Inject).Spans.ns *. 1e-9))
      "s";
    c "faults.injected" (per_iter (float_of_int (leaf Spans.Inject).Spans.units));
    m "fleet.run_s" (self "fleet.run" +. self "fleet.device") "s";
    m "monitor.sample_s" (self "monitor.sample") "s";
    m "telemetry.export_s" (self "telemetry.export") "s";
    m "monitor.timeline_s" (self "monitor.timeline") "s";
    m "monitor.timeline_bytes" (float_of_int first.Workloads.timeline_bytes) "bytes";
    m "obs.report_s" (self "obs.report") "s";
    c "pool.domains" (float_of_int (Stdlib.max 1 p.Workloads.domains));
    m "pool.cpu_per_wall" (ratio (gc (fun g -> g.Workloads.cpu_s)) u_wall) "s/s";
    c "gc.minor_collections"
      (ratio (float_of_int (isum (fun o -> o.Workloads.gc.minor_collections) u)) u_n);
    c "gc.major_collections"
      (ratio (float_of_int (isum (fun o -> o.Workloads.gc.major_collections) u)) u_n);
    m "gc.minor_pause_s.d0" (ratio (Runtime.minor_pause_s 0) u_n) "s";
    m "gc.minor_pause_s.d1" (ratio (Runtime.minor_pause_s 1) u_n) "s";
    m "gc.minor_pause_s.d2" (ratio (Runtime.minor_pause_s 2) u_n) "s";
    m "gc.promoted_words_per_op"
      (ratio (gc (fun g -> g.Workloads.promoted_words)) u_ops)
      "words/op";
    c "gc.lost_events" (float_of_int Runtime.gc.Runtime.lost_events);
    c "sim.host_writes"
      (float_of_int (if traffic then sum ".host_writes" else first.Workloads.ops_done));
    m "sim.write_amplification" first.Workloads.wa "ratio";
    c "sim.device_write_excess"
      (float_of_int
         (if traffic then sum ".host_writes" - sum ".accepted_writes"
          else get "device.host_writes" - get "device.accepted_writes"));
    c "sim.gc_runs" (float_of_int (sum ".gc_runs"));
    c "sim.relocated_opages" (float_of_int (sum ".relocated_opages"));
    c "sim.read_retries" (float_of_int (sum ".read_retries"));
    c "sim.uncorrectable_reads"
      (float_of_int (sum (if traffic then ".read_errors" else ".uncorrectable_reads")));
    c "sim.wear_deaths" (float_of_int (sum (if traffic then ".died" else ".wear_deaths")));
    c "sim.afr_deaths" (float_of_int (sum ".afr_deaths"));
    c "sim.completed_ops"
      (float_of_int (if traffic then sum ".completed" else first.Workloads.ops_done));
    m "trace.unattributed_s" (self "bench.measured") "s";
    m "trace.overhead_frac"
      (ratio
         (per_iter (fsum (fun o -> o.Workloads.measured_s) traced.outcomes))
         (ratio u_wall u_n)
      -. 1.)
      "frac";
  ]

(* Invariant violations, disagreement between iterations, and
   disagreement with the stored values for this seed. *)
let check_phase ~expected p (ph : phase) =
  let os = ph.outcomes in
  let first = List.hd os in
  List.concat_map (fun o -> o.Workloads.errors) os
  @ List.concat
      (List.mapi
         (fun i o ->
           if o.Workloads.counts <> first.Workloads.counts
              || o.Workloads.digests <> first.Workloads.digests
           then [ Printf.sprintf "iteration %d: output differs from iteration 0" i ]
           else [])
         os)
  @
  match expected with
  | Some table
    when Workloads.of_name p.Workloads.workload ~seed:p.Workloads.seed = Some p -> (
      match Check.lookup table ~workload:p.Workloads.workload ~seed:p.Workloads.seed with
      | Some want -> Check.against ~want first.Workloads.counts
      | None -> [])
  | _ -> []

let check_traced ~(untraced : phase) ~(traced : phase) =
  let u = List.hd untraced.outcomes and t = List.hd traced.outcomes in
  Check.agrees ~what:"traced" ~reference:u.Workloads.counts t.Workloads.counts
  @ (if u.Workloads.digests <> t.Workloads.digests then
       [ "traced artifacts differ from the untraced run's" ]
     else [])
  @
  if Float.is_nan u.Workloads.wa || u.Workloads.wa = t.Workloads.wa then []
  else [ "traced write amplification differs from the untraced run's" ]

let manifest ~seconds ~trace ~git_rev ~iterations p =
  let open Workloads in
  let kinds = String.concat "," (List.map (fun k -> Printf.sprintf "%S" (label k)) p.kinds) in
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"iterations\":%d,\
     \"designs\":[%s],\"devices_per_design\":%d,\"dwpd\":%g,\"afr_per_day\":%g,\"days\":%d,\
     \"years\":%g,\"epoch_days\":%d,\"tenants\":%d,\"ops\":%d,\"batch\":%d,\
     \"qos\":%b,\"fault_preset\":%S,\"domains\":%d,\"nproc\":%d,\"ocaml\":%S,\
     \"git_rev\":%S,\"model\":\"unvalidated: no reference hardware data, no \
     accuracy figure\"}"
    p.workload p.seed seconds trace iterations kinds p.devices p.dwpd p.afr_per_day p.days
    (float_of_int p.days /. 365.)
    p.epoch_days p.tenants p.ops p.batch p.qos p.preset
    (Stdlib.max 1 p.domains)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version git_rev

let execute ?(min_iterations = 3) ?expected ?(git_rev = "unknown") ~seconds ~trace p =
  let attempted = ref 0 in
  let count (ph : phase) =
    attempted := !attempted + isum (fun o -> o.Workloads.ops_done) ph.outcomes;
    ph
  in
  try
    if trace then Runtime.start_events ();
    Runtime.reset_events ();
    let untraced =
      count
        (run_phase ~traced:false ~probes:(if trace then 0 else setup_probes) p
           ~stop:(fun i measured -> i >= min_iterations && measured >= seconds))
    in
    Runtime.poll ();
    let iterations = List.length untraced.outcomes in
    let traced =
      if not trace then None
      else begin
        Spans.reset ();
        Spans.enabled := true;
        Fun.protect
          ~finally:(fun () -> Spans.enabled := false)
          (fun () ->
            Some
              (count
                 (run_phase ~traced:true ~probes:0 p ~stop:(fun i _ ->
                      i >= Stdlib.min iterations traced_iterations))))
      end
    in
    let errors =
      check_phase ~expected p untraced
      @
      match traced with
      | Some traced ->
          check_phase ~expected:None p traced @ check_traced ~untraced ~traced
      | None -> []
    in
    let attempted = Stdlib.max 1 !attempted in
    let failed = if errors = [] then 0 else attempted in
    let ok_frac = float_of_int (attempted - failed) /. float_of_int attempted in
    let metrics =
      match traced with
      | None -> end_to_end untraced ~ok_frac
      | Some traced -> per_layer p ~untraced ~traced
    in
    let manifest = manifest ~seconds ~trace ~git_rev ~iterations p in
    {
      correct = errors = [];
      attempted;
      failed;
      metrics =
        List.map
          (fun mt -> if Float.is_finite mt.value then mt else { mt with value = 0. })
          metrics;
      errors;
      manifest;
      spans =
        Option.map
          (fun _ ->
            Printf.sprintf "{\"manifest\":%s}\n%s" manifest
              (Spans.to_jsonl (Spans.spans ())))
          traced;
    }
  with e ->
    let attempted = Stdlib.max 1 !attempted in
    {
      correct = false;
      attempted;
      failed = attempted;
      metrics = [];
      errors = [ "exception: " ^ Printexc.to_string e ];
      manifest = "{}";
      spans = None;
    }

let result_json r =
  let metrics =
    String.concat ","
      (List.map
         (fun mt -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" mt.name mt.value mt.unit)
         r.metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed metrics

let write_file path contents =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--git-rev REV] \
   [--emit-expected]"

let main argv =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let git_rev = ref "unknown" and emit = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME fleet_bulk, fleet_observed or traffic_mixed");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 adds the traced run and prints per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the manifest");
      ("--emit-expected", Arg.Set emit, " print this seed's counts in the stored format and exit");
    ]
  in
  match
    Arg.parse_argv argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
  with
  | exception Arg.Bad msg | exception Arg.Help msg ->
      prerr_string msg;
      2
  | () -> (
      match Workloads.of_name !workload ~seed:!seed with
      | None ->
          Printf.eprintf "unknown workload %S (one of %s)\n" !workload
            (String.concat ", " Workloads.names);
          2
      | Some p when !emit ->
          let o =
            Workloads.iteration ~traced:false ~batches:(Workloads.Samples.create ())
              ~poll:ignore p
          in
          print_string (Check.render ~workload:p.workload ~seed:p.seed o.Workloads.counts);
          if o.Workloads.errors = [] then 0
          else begin
            List.iter prerr_endline o.Workloads.errors;
            1
          end
      | Some p ->
          let expected = Check.load "perfbench/expected.tsv" in
          let r =
            execute ~expected ~git_rev:!git_rev ~seconds:!seconds ~trace:(!trace = 1) p
          in
          Option.iter
            (fun contents ->
              let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" p.workload p.seed in
              try write_file path contents
              with Sys_error msg -> Printf.eprintf "cannot write spans: %s\n" msg)
            r.spans;
          List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) r.errors;
          List.iter
            (fun mt -> Printf.printf "metric %-32s %.6g %s\n" mt.name mt.value mt.unit)
            r.metrics;
          Printf.printf "manifest %s\n" r.manifest;
          print_endline (result_json r);
          if r.correct then 0 else 1)
