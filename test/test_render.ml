(* Differential tests for the exporters' shared number writer and the
   renderers built on it.  The [Printf] formatting the writer replaced is
   kept here as the oracle: every float conversion, the timeline CSV and
   JSONL, and the metrics Prometheus and JSONL must stay byte-identical
   to it.  The allocation bounds pin the render and snapshot paths. *)

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- Oracle: the Printf renderings ------------------------------------------ *)

module Oracle = struct
  let float_str x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.6g" x

  let json_float x =
    if Float.is_nan x || Float.abs x = infinity then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x

  let g17 x = Printf.sprintf "%.17g" x
  let esc s =
    let buffer = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '\n' -> Buffer.add_string buffer "\\n"
        | '\t' -> Buffer.add_string buffer "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.contents buffer

  let csv_field s =
    if String.contains s ',' || String.contains s '"' then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s

  let timeline_csv sampler =
    let num = json_float in
    let buffer = Buffer.create 4096 in
    Buffer.add_string buffer "metric,labels,field,t0,t1,last,mean,min,max,n\n";
    List.iter
      (fun ((k : Monitor.Sampler.Key.t), series) ->
        let prefix =
          Printf.sprintf "%s,%s,%s" (csv_field k.name)
            (csv_field (Telemetry.Registry.Labels.to_string k.labels))
            (csv_field k.field)
        in
        List.iter
          (fun (p : Monitor.Series.point) ->
            Buffer.add_string buffer
              (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%d\n" prefix (num p.t0)
                 (num p.t1) (num p.last) (num p.mean) (num p.vmin)
                 (num p.vmax) p.n))
          (Monitor.Series.points series))
      (Monitor.Sampler.series sampler);
    Buffer.contents buffer

  let timeline_jsonl sampler =
    let num = json_float in
    let buffer = Buffer.create 4096 in
    List.iter
      (fun ((k : Monitor.Sampler.Key.t), series) ->
        Buffer.add_string buffer
          (Printf.sprintf "{\"metric\":\"%s\",\"labels\":{%s},\"field\":\"%s\""
             (esc k.name)
             (String.concat ","
                (List.map
                   (fun (key, v) ->
                     Printf.sprintf "\"%s\":\"%s\"" (esc key) (esc v))
                   k.labels))
             (esc k.field));
        Buffer.add_string buffer ",\"points\":[";
        List.iteri
          (fun i (p : Monitor.Series.point) ->
            if i > 0 then Buffer.add_char buffer ',';
            Buffer.add_string buffer
              (Printf.sprintf "[%s,%s,%s,%s,%s,%s,%d]" (num p.t0) (num p.t1)
                 (num p.last) (num p.mean) (num p.vmin) (num p.vmax) p.n))
          (Monitor.Series.points series);
        Buffer.add_string buffer "]}\n")
      (Monitor.Sampler.series sampler);
    Buffer.contents buffer

  let prom_float x =
    if Float.is_nan x then "NaN"
    else if x = infinity then "+Inf"
    else if x = neg_infinity then "-Inf"
    else float_str x

  let prom_escape s =
    let buffer = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buffer "\\\\"
        | '"' -> Buffer.add_string buffer "\\\""
        | '\n' -> Buffer.add_string buffer "\\n"
        | c -> Buffer.add_char buffer c)
      s;
    Buffer.contents buffer

  let prom_labels labels =
    match labels with
    | [] -> ""
    | _ ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
               labels)
        ^ "}"

  let prometheus (samples : Telemetry.Registry.sample list) =
    let buffer = Buffer.create 1024 in
    let headed = Hashtbl.create 16 in
    let header name help kind =
      if not (Hashtbl.mem headed name) then begin
        Hashtbl.add headed name ();
        if help <> "" then
          Buffer.add_string buffer (Printf.sprintf "# HELP %s %s\n" name help);
        Buffer.add_string buffer (Printf.sprintf "# TYPE %s %s\n" name kind)
      end
    in
    List.iter
      (fun (s : Telemetry.Registry.sample) ->
        let line suffix labels v =
          Buffer.add_string buffer
            (Printf.sprintf "%s%s%s %s\n" s.name suffix (prom_labels labels) v)
        in
        match s.value with
        | Telemetry.Registry.Counter v ->
            header s.name s.help "counter";
            line "" s.labels (string_of_int v)
        | Telemetry.Registry.Gauge v ->
            header s.name s.help "gauge";
            line "" s.labels (prom_float v)
        | Telemetry.Registry.Histogram sum ->
            header s.name s.help "summary";
            if sum.count > 0 then
              List.iter
                (fun (q, v) ->
                  line ""
                    (Telemetry.Registry.Labels.v (("quantile", q) :: s.labels))
                    (prom_float v))
                [
                  ("0.5", sum.p50); ("0.9", sum.p90); ("0.95", sum.p95);
                  ("0.99", sum.p99); ("0.999", sum.p999);
                ];
            line "_count" s.labels (string_of_int sum.count);
            line "_sum" s.labels
              (prom_float
                 (if sum.count = 0 then 0.
                  else sum.mean *. float_of_int sum.count)))
      samples;
    Buffer.contents buffer

  let jsonl (samples : Telemetry.Registry.sample list) =
    let line (s : Telemetry.Registry.sample) =
      let common =
        Printf.sprintf "\"name\":\"%s\",\"labels\":{%s}" (esc s.name)
          (String.concat ","
             (List.map
                (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v))
                s.labels))
      in
      match s.value with
      | Telemetry.Registry.Counter v ->
          Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" common v
      | Telemetry.Registry.Gauge v ->
          Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" common
            (json_float v)
      | Telemetry.Registry.Histogram sum ->
          Printf.sprintf
            "{%s,\"type\":\"histogram\",\"count\":%d,\"mean\":%s,\"min\":%s,\
             \"max\":%s,\"p50\":%s,\"p90\":%s,\"p95\":%s,\"p99\":%s,\"p999\":%s}"
            common sum.count (json_float sum.mean) (json_float sum.min)
            (json_float sum.max) (json_float sum.p50) (json_float sum.p90)
            (json_float sum.p95) (json_float sum.p99) (json_float sum.p999)
    in
    String.concat "" (List.map (fun s -> line s ^ "\n") samples)
end

(* --- The number writer against the oracle ----------------------------------- *)

let g17 x =
  let buffer = Buffer.create 24 in
  Telemetry.Export.add_g17 buffer x;
  Buffer.contents buffer

(* Every conversion the writer serves, each with its oracle. *)
let conversions =
  [
    ("json_float", Telemetry.Export.json_float, Oracle.json_float);
    ("float_str", Telemetry.Export.float_str, Oracle.float_str);
    ("%.17g", g17, Oracle.g17);
  ]

let matches_oracle x =
  List.for_all (fun (_, writer, oracle) -> writer x = oracle x) conversions

let check_float x =
  List.iter
    (fun (name, writer, oracle) ->
      checks (Printf.sprintf "%s of %h" name x) (oracle x) (writer x))
    conversions

let test_writer_edge_cases () =
  let two53 = 9007199254740992. in
  List.iter check_float
    [
      0.; -0.; 1.; -1.; 7.; -42.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15;
      999999999999999.5; 1e15 +. 1.; 1e16; 1e17; 1e21; -1e21;
      two53 -. 1.; two53; two53 +. 2.; -.two53 -. 2.; 0.5; -0.5; 4.5;
      0.1; 1. /. 3.; 123456.75; 1234567.; 1234567.5; 1e-5; 1e-300;
      Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.succ 0.; 2.2250738585072009e-308; Float.max_float;
      -.Float.max_float; Float.epsilon; nan; -.nan; Float.nan; infinity;
      neg_infinity; float_of_int max_int; float_of_int min_int;
    ];
  (* Negative integers across every digit count the fast path writes. *)
  let rec powers p =
    if p < 1e15 then begin
      check_float (-.p);
      check_float (-.(p -. 1.));
      check_float (p +. 1.);
      powers (p *. 10.)
    end
  in
  powers 1.

(* Random bit patterns reach NaN payloads, subnormals and every
   exponent; integer-valued draws exercise the digit fast path, which
   uniform bit patterns almost never hit. *)
let arb_float =
  let open QCheck.Gen in
  let bits = map Int64.float_of_bits ui64 in
  let integer =
    map2
      (fun n neg -> if neg then -.float_of_int n else float_of_int n)
      (int_bound 2_000_000_000_000_000) bool
  in
  let small = map float_of_int (int_range (-100_000) 100_000) in
  let dyadic =
    map2 (fun n e -> ldexp (float_of_int n) (-e)) (int_range (-1_000_000) 1_000_000)
      (int_bound 12)
  in
  QCheck.make ~print:(Printf.sprintf "%h")
    (frequency [ (4, bits); (2, integer); (1, small); (1, dyadic) ])

let prop_writer_matches_printf =
  QCheck.Test.make ~count:20_000 ~name:"number writer matches Printf"
    arb_float matches_oracle

(* --- Renderers against the oracle on a monitored fleet ----------------------- *)

(* A small multi-device fleet with a short series capacity, so series
   compact into points whose means are fractional, and labelled
   histograms, whose CSV label field holds a comma and must be quoted. *)
let fleet_renders =
  lazy
    (let registry = Telemetry.Registry.create () in
     let monitor = Monitor.Engine.create ~capacity:4 () in
     let ctx = Experiments.Ctx.make ~registry ~monitor () in
     ignore (Experiments.Fleet.run ~devices:3 ~days:20 ~dwpd:2. ~ctx `Regens);
     (registry, Monitor.Engine.sampler monitor))

let csv_rows text = String.split_on_char '\n' text

let test_timeline_csv_matches_oracle () =
  let _, sampler = Lazy.force fleet_renders in
  let fast = Monitor.Timeline.to_csv sampler in
  let slow = Oracle.timeline_csv sampler in
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "csv row %d" i) b a)
    (List.combine (csv_rows fast) (csv_rows slow));
  checks "csv bytes" slow fast;
  checkb "a label field is quoted" true
    (List.exists (fun row -> String.contains row '"') (csv_rows fast));
  checkb "a point has a fractional mean" true
    (List.exists
       (fun (_, series) ->
         List.exists
           (fun (p : Monitor.Series.point) -> not (Float.is_integer p.mean))
           (Monitor.Series.points series))
       (Monitor.Sampler.series sampler))

let test_timeline_jsonl_matches_oracle () =
  let _, sampler = Lazy.force fleet_renders in
  let fast = Monitor.Timeline.to_jsonl sampler in
  let slow = Oracle.timeline_jsonl sampler in
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "jsonl line %d" i) b a)
    (List.combine (csv_rows fast) (csv_rows slow));
  checks "jsonl bytes" slow fast

let test_metrics_match_oracle () =
  let registry, _ = Lazy.force fleet_renders in
  let samples = Telemetry.Registry.snapshot registry in
  checks "prometheus bytes" (Oracle.prometheus samples)
    (Telemetry.Export.to_prometheus samples);
  checks "jsonl bytes" (Oracle.jsonl samples) (Telemetry.Export.to_jsonl samples);
  (* Escapes and non-finite values the fleet never produces. *)
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Gauge.set
    (Telemetry.Registry.gauge reg ~labels:[ ("cell", "a\"b\\c\nd,e=f\t") ] "g")
    nan;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "inf") infinity;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "ninf")
    neg_infinity;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "frac") (-0.125);
  ignore (Telemetry.Registry.histogram reg ~lo:0. ~hi:1. "empty");
  let samples = Telemetry.Registry.snapshot reg in
  checks "prometheus edge bytes" (Oracle.prometheus samples)
    (Telemetry.Export.to_prometheus samples);
  checks "jsonl edge bytes" (Oracle.jsonl samples)
    (Telemetry.Export.to_jsonl samples)

(* --- Allocation regression -------------------------------------------------- *)

(* Rendering and sampling run once per row and once per metric per
   sample, millions of times on an observed fleet.  Observed today:
   about 24 minor words per rendered timeline row (the point record a
   row is read through; series store points unboxed) and 57 per
   snapshot entry, against about 490 and 290 for the Printf renderer
   and the per-comparison label rendering they replaced.  The bounds
   sit at about 2x observed, so they trip on a per-row format string
   or a per-comparison label render, not on noise. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_timeline_row_allocation () =
  let sampler = Monitor.Sampler.create ~capacity:64 () in
  for d = 0 to 39 do
    let labels = [ ("device", Printf.sprintf "d%d" d); ("op", "erase") ] in
    for step = 0 to 47 do
      let time = float_of_int step in
      Monitor.Sampler.observe sampler ~time
        (Monitor.Sampler.key ~labels "ops_total")
        (float_of_int (step * 97));
      Monitor.Sampler.observe sampler ~time
        (Monitor.Sampler.key ~labels ~field:"mean" "lat_us")
        (if step mod 8 = 0 then 0.1 *. time else 5. +. time)
    done
  done;
  let rows =
    List.fold_left
      (fun acc (_, s) -> acc + Monitor.Series.length s)
      0
      (Monitor.Sampler.series sampler)
  in
  ignore (Monitor.Timeline.to_csv sampler);
  let per_row =
    minor_words (fun () -> ignore (Monitor.Timeline.to_csv sampler))
    /. float_of_int rows
  in
  if per_row > 50. then
    Alcotest.failf "timeline CSV allocates %.1f minor words/row (> 50)" per_row

let test_snapshot_entry_allocation () =
  let reg = Telemetry.Registry.create ~shared:false () in
  let entries = ref 0 in
  for d = 0 to 19 do
    let labels = [ ("chip", string_of_int d); ("device", "regens-0") ] in
    List.iter
      (fun name ->
        incr entries;
        Telemetry.Registry.Counter.incr
          (Telemetry.Registry.counter reg ~labels name)
          ~by:d)
      [ "reads_total"; "writes_total"; "erases_total" ];
    incr entries;
    Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg ~labels "pec")
      (float_of_int d);
    incr entries;
    Telemetry.Registry.Histogram.observe
      (Telemetry.Registry.histogram reg ~labels ~lo:0. ~hi:100. "lat_us")
      (float_of_int d)
  done;
  ignore (Telemetry.Registry.snapshot reg);
  let per_entry =
    minor_words (fun () -> ignore (Telemetry.Registry.snapshot reg))
    /. float_of_int !entries
  in
  if per_entry > 120. then
    Alcotest.failf "Registry.snapshot allocates %.1f minor words/entry (> 120)"
      per_entry

let suite =
  [
    ("writer: edge cases match Printf", `Quick, test_writer_edge_cases);
    QCheck_alcotest.to_alcotest prop_writer_matches_printf;
    ("timeline csv matches Printf oracle", `Slow,
     test_timeline_csv_matches_oracle);
    ("timeline jsonl matches Printf oracle", `Slow,
     test_timeline_jsonl_matches_oracle);
    ("metrics exports match Printf oracle", `Slow, test_metrics_match_oracle);
    ("allocation: timeline row", `Quick, test_timeline_row_allocation);
    ("allocation: snapshot entry", `Quick, test_snapshot_entry_allocation);
  ]
