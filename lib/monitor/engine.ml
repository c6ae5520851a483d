type t = {
  sampler : Sampler.t;
  alerts : Alert.t;
  sink : Telemetry.Trace.Sink.t option;
  capacity : int;
  sample_every : int;
  mutable samples : int;
}

let create ?(capacity = 256) ?(sample_every = 1) ?(rules = []) ?sink () =
  if sample_every < 1 then invalid_arg "Engine.create: sample_every < 1";
  {
    sampler = Sampler.create ~capacity ();
    alerts = Alert.create rules;
    sink;
    capacity;
    sample_every;
    samples = 0;
  }

let sample_every t = t.sample_every
let due t ~tick = tick mod t.sample_every = 0

let sample t ~time registry =
  Sampler.sample t.sampler ~time registry;
  let fresh = Alert.eval t.alerts ~time t.sampler in
  (match t.sink with
  | Some sink ->
      List.iter
        (fun (tr : Alert.transition) ->
          Telemetry.Trace.Sink.instant sink
            ("alert:" ^ tr.Alert.rule_name)
            [
              ( "state",
                match tr.Alert.state with
                | Alert.Firing -> "firing"
                | Alert.Resolved -> "resolved" );
              ("series", Sampler.Key.to_string tr.Alert.key);
              ("value", Telemetry.Export.float_str tr.Alert.value);
            ])
        fresh
  | None -> ());
  t.samples <- t.samples + 1

let samples t = t.samples
let sampler t = t.sampler
let alert_log t = Alert.log t.alerts
let sink t = t.sink

let sub t =
  {
    sampler = Sampler.create ~capacity:t.capacity ();
    alerts = Alert.create (Alert.rules t.alerts);
    sink = Option.map (fun _ -> Telemetry.Trace.Sink.create ()) t.sink;
    capacity = t.capacity;
    sample_every = t.sample_every;
    samples = 0;
  }

let absorb ~into ?labels sub =
  Sampler.merge ~into:into.sampler ?labels sub.sampler;
  Alert.absorb ~into:into.alerts ?labels sub.alerts;
  (match (into.sink, sub.sink) with
  | Some dst, Some src ->
      Telemetry.Trace.Sink.merge ~into:dst
        ?parent:(Telemetry.Trace.Sink.current dst)
        src
  | _ -> ());
  into.samples <- into.samples + sub.samples
