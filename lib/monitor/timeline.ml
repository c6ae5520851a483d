module Export = Telemetry.Export

let add_csv_field buffer s =
  if String.contains s ',' || String.contains s '"' then begin
    (* Label values cannot contain '"' (Labels.v rejects it), but quote
       defensively per RFC 4180 anyway. *)
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buffer "\"\""
        else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"'
  end
  else Buffer.add_string buffer s

(* The point's numbers, comma-separated: t0,t1,last,mean,min,max,n. *)
let add_point buffer (p : Series.point) =
  Export.add_json_float buffer p.t0;
  Buffer.add_char buffer ',';
  Export.add_json_float buffer p.t1;
  Buffer.add_char buffer ',';
  Export.add_json_float buffer p.last;
  Buffer.add_char buffer ',';
  Export.add_json_float buffer p.mean;
  Buffer.add_char buffer ',';
  Export.add_json_float buffer p.vmin;
  Buffer.add_char buffer ',';
  Export.add_json_float buffer p.vmax;
  Buffer.add_char buffer ',';
  Export.add_int buffer p.n

let to_csv sampler =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "metric,labels,field,t0,t1,last,mean,min,max,n\n";
  List.iter
    (fun ((k : Sampler.Key.t), series) ->
      let prefix =
        let b = Buffer.create 64 in
        add_csv_field b k.name;
        Buffer.add_char b ',';
        add_csv_field b (Telemetry.Registry.Labels.to_string k.labels);
        Buffer.add_char b ',';
        add_csv_field b k.field;
        Buffer.add_char b ',';
        Buffer.contents b
      in
      Series.iter
        (fun p ->
          Buffer.add_string buffer prefix;
          add_point buffer p;
          Buffer.add_char buffer '\n')
        series)
    (Sampler.series sampler);
  Buffer.contents buffer

let to_jsonl sampler =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun ((k : Sampler.Key.t), series) ->
      Buffer.add_string buffer "{\"metric\":";
      Export.add_json_string buffer k.name;
      Buffer.add_string buffer ",\"labels\":";
      Export.add_json_labels buffer k.labels;
      Buffer.add_string buffer ",\"field\":";
      Export.add_json_string buffer k.field;
      Buffer.add_string buffer ",\"points\":[";
      let first = ref true in
      Series.iter
        (fun p ->
          if !first then first := false else Buffer.add_char buffer ',';
          Buffer.add_char buffer '[';
          add_point buffer p;
          Buffer.add_char buffer ']')
        series;
      Buffer.add_string buffer "]}\n")
    (Sampler.series sampler);
  Buffer.contents buffer
