(* The benchmark's own tests, on small shapes of the three workloads. *)

open Perfbench

let small_bulk ~seed = { (Workloads.fleet_bulk ~seed) with Workloads.devices = 2 }

let small_observed ~seed =
  { (Workloads.fleet_observed ~seed) with Workloads.devices = 4; days = 365 }

let small_traffic ~seed = { (Workloads.traffic_mixed ~seed) with Workloads.ops = 3000 }

let iteration ~traced p =
  Spans.reset ();
  Spans.enabled := traced;
  Fun.protect
    ~finally:(fun () -> Spans.enabled := false)
    (fun () ->
      Workloads.iteration ~traced ~batches:(Workloads.Samples.create ())
        ~poll:ignore p)

let no_errors what (o : Workloads.outcome) =
  Alcotest.(check (list string)) (what ^ ": invariants") [] o.errors

(* The proxy forwards every call unchanged: the traced run's simulated
   counts, write amplification and rendered artifacts are the untraced
   run's. *)
let proxy_transparent p () =
  let plain = iteration ~traced:false p in
  let traced = iteration ~traced:true p in
  no_errors "untraced" plain;
  no_errors "traced" traced;
  Alcotest.(check (list string))
    "counts" []
    (Check.agrees ~what:"traced" ~reference:plain.counts traced.counts);
  Alcotest.(check (list (pair string string))) "artifacts" plain.digests traced.digests;
  if not (Float.is_nan plain.wa) then
    Alcotest.(check (float 0.)) "write amplification" plain.wa traced.wa;
  Alcotest.(check bool) "device calls were timed" true
    (List.exists (fun k -> (Spans.leaf_total k).Spans.calls > 0) Spans.leaf_kinds)

let seed_changes_inputs () =
  let trace seed =
    let spec = Workloads.traffic_spec (small_traffic ~seed) in
    Workload.Trace.to_string (Traffic.Gen.generate spec ~seed)
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 1 = trace 1);
  Alcotest.(check bool) "other seed, other trace" false (trace 1 = trace 2);
  let counts p = (iteration ~traced:false p).counts in
  Alcotest.(check bool) "same seed, same fleet" true
    (counts (small_bulk ~seed:1) = counts (small_bulk ~seed:1));
  Alcotest.(check bool) "other seed, other fleet" false
    (counts (small_bulk ~seed:1) = counts (small_bulk ~seed:2))

let perturbed_expectation_fails () =
  let o = iteration ~traced:false (small_traffic ~seed:3) in
  let rendered = Check.render ~workload:"traffic_mixed" ~seed:3 o.counts in
  let table = Check.parse rendered in
  let want = Option.get (Check.lookup table ~workload:"traffic_mixed" ~seed:3) in
  Alcotest.(check (list string)) "stored values match" [] (Check.against ~want o.counts);
  let perturbed =
    List.mapi (fun i (k, v) -> if i = 1 then (k, v + 1) else (k, v)) want
  in
  Alcotest.(check int) "one mismatch" 1
    (List.length (Check.against ~want:perturbed o.counts));
  (* End to end: a stored value off by one fails the run and counts
     every attempted op as failed. *)
  let p = Workloads.traffic_mixed ~seed:3 in
  let table =
    Check.parse
      (Check.render ~workload:p.workload ~seed:p.seed [ ("baseline.completed", 1) ])
  in
  let report =
    Bench.execute ~min_iterations:1 ~expected:table ~seconds:0. ~trace:false p
  in
  Alcotest.(check bool) "run fails" false report.Bench.correct;
  Alcotest.(check int) "all ops failed" report.Bench.attempted report.Bench.failed;
  let ok_frac = List.find (fun m -> m.Bench.name = "ok_frac") report.Bench.metrics in
  Alcotest.(check (float 0.)) "ok_frac" 0. ok_frac.Bench.value

let observed_equal_across_domains () =
  let p = small_observed ~seed:5 in
  let run domains =
    let registry = Telemetry.Registry.create () in
    let monitor =
      Monitor.Engine.create ~sample_every:1 ~rules:(Workloads.monitor_rules ()) ()
    in
    Parallel.Pool.with_pool ~domains (fun pool ->
        let ctx = Experiments.Ctx.make ~registry ~pool ~monitor () in
        let r =
          Experiments.Fleet.run ~devices:p.devices ~days:p.days ~dwpd:p.dwpd
            ~seed:p.seed ~ctx ~epoch_days:p.epoch_days `Regens
        in
        (r, Monitor.Timeline.to_csv (Monitor.Engine.sampler monitor)))
  in
  let r1, t1 = run 1 and r2, t2 = run 2 in
  Alcotest.(check bool) "Fleet.result" true (r1 = r2);
  Alcotest.(check string) "timeline" t1 t2

(* The benchmark's cells replay exactly as the traffic experiment's. *)
let cells_match_traffic_run () =
  let p = small_traffic ~seed:11 in
  let rows =
    Experiments.Traffic_run.run ~tenants:p.tenants ~ops:p.ops ~seed:p.seed
      ~batch:p.batch ~qos:p.qos Format.str_formatter
  in
  ignore (Format.flush_str_formatter ());
  let o = iteration ~traced:false p in
  List.iter
    (fun (r : Experiments.Traffic_run.row) ->
      let name = r.label ^ if r.chaos then "+chaos" else "" in
      let get k = List.assoc (name ^ "." ^ k) o.counts in
      Alcotest.(check (list int))
        name
        [ r.completed; r.read_errors; r.throttled; r.violations ]
        [ get "completed"; get "read_errors"; get "throttled_ops"; get "slo_violations" ])
    rows

(* A small JSON reader, enough for BENCHMARK.json. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Other

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if peek () = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if peek () = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | _ ->
        while !pos < String.length s && not (String.contains ",]} \t\r\n" (peek ())) do
          incr pos
        done;
        Other
  in
  value ()

let declared section =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse_json s with
  | Obj fields -> (
      match List.assoc section fields with
      | Arr items ->
          List.map
            (function
              | Obj f -> (
                  match (List.assoc "name" f, List.assoc_opt "unit" f) with
                  | Str n, Some (Str u) -> (n, u)
                  | Str n, None -> (n, "")
                  | _ -> failwith "name")
              | _ -> failwith "entry")
            items
      | _ -> failwith section)
  | _ -> failwith "BENCHMARK.json"

let every_name_printed () =
  let workloads = declared "workloads" |> List.map fst |> List.sort compare in
  Alcotest.(check (list string)) "workloads"
    (List.sort compare Workloads.names) workloads;
  let shapes = [ small_bulk ~seed:1; small_observed ~seed:1; small_traffic ~seed:1 ] in
  List.iter
    (fun (trace, section) ->
      let want = List.sort compare (declared section) in
      List.iter
        (fun p ->
          let report = Bench.execute ~min_iterations:1 ~seconds:0. ~trace p in
          Alcotest.(check (list string)) "no check failures" [] report.Bench.errors;
          let printed =
            Bench.result_json report |> parse_json |> function
            | Obj fields -> (
                match List.assoc "metrics" fields with
                | Obj ms ->
                    List.map
                      (fun (n, v) ->
                        match v with
                        | Obj f -> (
                            match List.assoc "unit" f with Str u -> (n, u) | _ -> (n, ""))
                        | _ -> (n, ""))
                      ms
                | _ -> [])
            | _ -> []
          in
          Alcotest.(check (list (pair string string)))
            (p.Workloads.workload ^ " " ^ section)
            want (List.sort compare printed))
        shapes)
    [ (false, "end_to_end"); (true, "per_layer") ]

let () =
  Alcotest.run "perfbench"
    [
      ( "proxy",
        [
          Alcotest.test_case "transparent on fleet_bulk" `Quick
            (proxy_transparent (small_bulk ~seed:1));
          Alcotest.test_case "transparent on fleet_observed" `Quick
            (proxy_transparent (small_observed ~seed:1));
          Alcotest.test_case "transparent on traffic_mixed" `Quick
            (proxy_transparent (small_traffic ~seed:1));
        ] );
      ( "inputs",
        [ Alcotest.test_case "seed changes inputs" `Quick seed_changes_inputs ] );
      ( "check",
        [
          Alcotest.test_case "perturbed expectation fails" `Quick
            perturbed_expectation_fails;
          Alcotest.test_case "observed fleet equal across domains" `Quick
            observed_equal_across_domains;
          Alcotest.test_case "cells match traffic experiment" `Quick
            cells_match_traffic_run;
        ] );
      ( "names",
        [ Alcotest.test_case "every BENCHMARK.json name printed" `Quick every_name_printed ] );
    ]
