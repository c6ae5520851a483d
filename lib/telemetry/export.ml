open Registry

(* --- number writer ------------------------------------------------------- *)

(* Every exporter renders its floats through the writers below, which
   append to a caller-owned [Buffer] (no shared mutable state: exporters run
   on pool workers).  The bytes are exactly those of the [Printf]
   conversions they replace.  Integer-valued floats below 1e15 are
   written as decimal digits directly: for them ["%.0f"], ["%.17g"] and
   the digits agree byte for byte, and they are most of what a
   timeline or snapshot holds.  Every other float goes straight to the
   C primitive that [Printf]'s ["%.17g"] and ["%.6g"] conversions call. *)

external format_float : string -> float -> string = "caml_format_float"

let rec add_digits buffer n =
  if n >= 10 then add_digits buffer (n / 10);
  Buffer.add_char buffer (Char.unsafe_chr (48 + (n mod 10)))

let add_float buffer ~fallback x =
  if Float.is_integer x && Float.abs x < 1e15 then begin
    (* [%.0f] keeps the sign of -0. *)
    if Float.sign_bit x then Buffer.add_char buffer '-';
    add_digits buffer (int_of_float (Float.abs x))
  end
  else Buffer.add_string buffer (format_float fallback x)

let add_int buffer n =
  if n >= 0 then add_digits buffer n
  else Buffer.add_string buffer (string_of_int n)

let add_g17 buffer x = add_float buffer ~fallback:"%.17g" x
let add_float_str buffer x = add_float buffer ~fallback:"%.6g" x

let add_json_float buffer x =
  if Float.is_nan x || Float.abs x = infinity then
    Buffer.add_string buffer "null"
  else add_g17 buffer x

let render add x =
  let buffer = Buffer.create 24 in
  add buffer x;
  Buffer.contents buffer

let float_str x = render add_float_str x
let json_float x = render add_json_float x

(* --- console table ------------------------------------------------------- *)

let describe_value = function
  | Counter v -> string_of_int v
  | Gauge v -> float_str v
  | Histogram s ->
      if s.count = 0 then "count=0"
      else
        Printf.sprintf
          "count=%d mean=%s p50=%s p90=%s p95=%s p99=%s p999=%s max=%s"
          s.count (float_str s.mean) (float_str s.p50) (float_str s.p90)
          (float_str s.p95) (float_str s.p99) (float_str s.p999)
          (float_str s.max)

let metric_id sample =
  match sample.labels with
  | [] -> sample.name
  | labels -> sample.name ^ "{" ^ Labels.to_string labels ^ "}"

let pp_table ppf samples =
  match samples with
  | [] -> Format.fprintf ppf "  (no metrics registered)@."
  | _ ->
      let rows =
        List.map (fun s -> (metric_id s, describe_value s.value)) samples
      in
      let width =
        List.fold_left (fun w (id, _) -> Stdlib.max w (String.length id)) 0 rows
      in
      List.iter
        (fun (id, value) ->
          Format.fprintf ppf "  %-*s  %s@." width id value)
        rows

(* --- Prometheus text exposition ------------------------------------------ *)

let add_prom_float buffer x =
  if Float.is_nan x then Buffer.add_string buffer "NaN"
  else if x = infinity then Buffer.add_string buffer "+Inf"
  else if x = neg_infinity then Buffer.add_string buffer "-Inf"
  else add_float_str buffer x

(* Prometheus label values escape exactly '\', '"' and newline — not
   OCaml's %S repertoire, whose \t / \xNN escapes a Prometheus scraper
   would read literally. *)
let add_prom_escaped buffer s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '"' -> Buffer.add_string buffer "\\\""
      | '\n' -> Buffer.add_string buffer "\\n"
      | c -> Buffer.add_char buffer c)
    s

let add_prom_labels buffer labels =
  if labels <> [] then begin
    Buffer.add_char buffer '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buffer ',';
        Buffer.add_string buffer k;
        Buffer.add_string buffer "=\"";
        add_prom_escaped buffer v;
        Buffer.add_char buffer '"')
      labels;
    Buffer.add_char buffer '}'
  end

let to_prometheus samples =
  let buffer = Buffer.create 1024 in
  let headed = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem headed name) then begin
      Hashtbl.add headed name ();
      if help <> "" then begin
        Buffer.add_string buffer "# HELP ";
        Buffer.add_string buffer name;
        Buffer.add_char buffer ' ';
        Buffer.add_string buffer help;
        Buffer.add_char buffer '\n'
      end;
      Buffer.add_string buffer "# TYPE ";
      Buffer.add_string buffer name;
      Buffer.add_char buffer ' ';
      Buffer.add_string buffer kind;
      Buffer.add_char buffer '\n'
    end
  in
  let line name suffix labels add_value value =
    Buffer.add_string buffer name;
    Buffer.add_string buffer suffix;
    add_prom_labels buffer labels;
    Buffer.add_char buffer ' ';
    add_value buffer value;
    Buffer.add_char buffer '\n'
  in
  List.iter
    (fun s ->
      match s.value with
      | Counter v ->
          header s.name s.help "counter";
          line s.name "" s.labels add_int v
      | Gauge v ->
          header s.name s.help "gauge";
          line s.name "" s.labels add_prom_float v
      | Histogram sum ->
          header s.name s.help "summary";
          (* An empty histogram has no quantiles to report (they would
             all be NaN), and its sum is zero by definition — not the
             [mean * count = nan * 0] NaN the naive product yields. *)
          if sum.count > 0 then
            List.iter
              (fun (quantile, v) ->
                line s.name ""
                  (Labels.v (("quantile", quantile) :: s.labels))
                  add_prom_float v)
              [
                ("0.5", sum.p50); ("0.9", sum.p90); ("0.95", sum.p95);
                ("0.99", sum.p99); ("0.999", sum.p999);
              ];
          line s.name "_count" s.labels add_int sum.count;
          let total =
            if sum.count = 0 then 0. else sum.mean *. float_of_int sum.count
          in
          line s.name "_sum" s.labels add_prom_float total)
    samples;
  Buffer.contents buffer

(* --- JSONL ---------------------------------------------------------------- *)

let add_json_escaped buffer s =
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
    s

let json_escape s =
  let buffer = Buffer.create (String.length s + 2) in
  add_json_escaped buffer s;
  Buffer.contents buffer

let add_json_string buffer s =
  Buffer.add_char buffer '"';
  add_json_escaped buffer s;
  Buffer.add_char buffer '"'

let add_json_labels buffer labels =
  Buffer.add_char buffer '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buffer ',';
      add_json_string buffer k;
      Buffer.add_char buffer ':';
      add_json_string buffer v)
    labels;
  Buffer.add_char buffer '}'

let to_jsonl samples =
  let buffer = Buffer.create 1024 in
  let field name add value =
    Buffer.add_string buffer ",\"";
    Buffer.add_string buffer name;
    Buffer.add_string buffer "\":";
    add buffer value
  in
  List.iter
    (fun s ->
      Buffer.add_string buffer "{\"name\":";
      add_json_string buffer s.name;
      Buffer.add_string buffer ",\"labels\":";
      add_json_labels buffer s.labels;
      (match s.value with
      | Counter v ->
          Buffer.add_string buffer ",\"type\":\"counter\"";
          field "value" add_int v
      | Gauge v ->
          Buffer.add_string buffer ",\"type\":\"gauge\"";
          field "value" add_json_float v
      | Histogram sum ->
          Buffer.add_string buffer ",\"type\":\"histogram\"";
          field "count" add_int sum.count;
          field "mean" add_json_float sum.mean;
          field "min" add_json_float sum.min;
          field "max" add_json_float sum.max;
          field "p50" add_json_float sum.p50;
          field "p90" add_json_float sum.p90;
          field "p95" add_json_float sum.p95;
          field "p99" add_json_float sum.p99;
          field "p999" add_json_float sum.p999);
      Buffer.add_string buffer "}\n")
    samples;
  Buffer.contents buffer

(* A minimal JSON value parser, sufficient for the flat objects emitted
   above (strings, numbers, null, one level of nested object for labels). *)
module Json = struct
  type value =
    | String of string
    | Number of float
    | Null
    | Object of (string * value) list

  type state = { text : string; mutable pos : int }

  let fail state msg =
    failwith (Printf.sprintf "jsonl parse error at %d: %s" state.pos msg)

  let peek state =
    if state.pos >= String.length state.text then '\000'
    else state.text.[state.pos]

  let advance state = state.pos <- state.pos + 1

  let skip_ws state =
    while
      match peek state with ' ' | '\t' | '\r' -> true | _ -> false
    do
      advance state
    done

  let expect state c =
    if peek state <> c then fail state (Printf.sprintf "expected %c" c);
    advance state

  let parse_string state =
    expect state '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      match peek state with
      | '\000' -> fail state "unterminated string"
      | '"' -> advance state
      | '\\' ->
          advance state;
          (match peek state with
          | '"' -> Buffer.add_char buffer '"'
          | '\\' -> Buffer.add_char buffer '\\'
          | 'n' -> Buffer.add_char buffer '\n'
          | 't' -> Buffer.add_char buffer '\t'
          | 'u' ->
              if state.pos + 4 >= String.length state.text then
                fail state "bad \\u escape";
              let hex = String.sub state.text (state.pos + 1) 4 in
              Buffer.add_char buffer (Char.chr (int_of_string ("0x" ^ hex)));
              state.pos <- state.pos + 4
          | c -> fail state (Printf.sprintf "bad escape \\%c" c));
          advance state;
          go ()
      | c ->
          Buffer.add_char buffer c;
          advance state;
          go ()
    in
    go ();
    Buffer.contents buffer

  let parse_number state =
    let start = state.pos in
    while
      match peek state with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance state
    done;
    if state.pos = start then fail state "expected number";
    float_of_string (String.sub state.text start (state.pos - start))

  let rec parse_value state =
    skip_ws state;
    match peek state with
    | '"' -> String (parse_string state)
    | '{' -> parse_object state
    | 'n' ->
        if
          state.pos + 4 <= String.length state.text
          && String.sub state.text state.pos 4 = "null"
        then begin
          state.pos <- state.pos + 4;
          Null
        end
        else fail state "expected null"
    | _ -> Number (parse_number state)

  and parse_object state =
    expect state '{';
    skip_ws state;
    if peek state = '}' then begin
      advance state;
      Object []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws state;
        let key = parse_string state in
        skip_ws state;
        expect state ':';
        let value = parse_value state in
        fields := (key, value) :: !fields;
        skip_ws state;
        match peek state with
        | ',' ->
            advance state;
            go ()
        | '}' -> advance state
        | _ -> fail state "expected ',' or '}'"
      in
      go ();
      Object (List.rev !fields)
    end

  let of_line line =
    let state = { text = line; pos = 0 } in
    let value = parse_object state in
    skip_ws state;
    if state.pos <> String.length line then fail state "trailing input";
    value
end

let of_jsonl text =
  let field fields name =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> failwith (Printf.sprintf "jsonl: missing field %S" name)
  in
  let get_string fields name =
    match field fields name with
    | Json.String s -> s
    | _ -> failwith (Printf.sprintf "jsonl: field %S is not a string" name)
  in
  let get_float fields name =
    match field fields name with
    | Json.Number x -> x
    | Json.Null -> nan
    | _ -> failwith (Printf.sprintf "jsonl: field %S is not a number" name)
  in
  let get_int fields name = int_of_float (get_float fields name) in
  (* Quantile fields the format has grown over time (p50/p90/p95/p999)
     read as [nan] from older artifacts instead of failing the whole
     parse. *)
  let get_float_opt fields name =
    match List.assoc_opt name fields with
    | Some (Json.Number x) -> x
    | Some Json.Null | None -> nan
    | Some _ -> failwith (Printf.sprintf "jsonl: field %S is not a number" name)
  in
  let sample_of_line line =
    match Json.of_line line with
    | Json.Object fields ->
        let labels =
          match field fields "labels" with
          | Json.Object pairs ->
              Labels.v
                (List.map
                   (fun (k, v) ->
                     match v with
                     | Json.String s -> (k, s)
                     | _ -> failwith "jsonl: label value is not a string")
                   pairs)
          | _ -> failwith "jsonl: labels is not an object"
        in
        let value =
          match get_string fields "type" with
          | "counter" -> Counter (get_int fields "value")
          | "gauge" -> Gauge (get_float fields "value")
          | "histogram" ->
              Histogram
                {
                  count = get_int fields "count";
                  mean = get_float fields "mean";
                  min = get_float fields "min";
                  max = get_float fields "max";
                  p50 = get_float_opt fields "p50";
                  p90 = get_float_opt fields "p90";
                  p95 = get_float_opt fields "p95";
                  p99 = get_float fields "p99";
                  p999 = get_float_opt fields "p999";
                }
          | kind -> failwith (Printf.sprintf "jsonl: unknown type %S" kind)
        in
        { name = get_string fields "name"; labels; help = ""; value }
    | _ -> failwith "jsonl: line is not an object"
  in
  String.split_on_char '\n' text
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map sample_of_line

let write_file ~path contents =
  if path = "-" then begin
    print_string contents;
    flush stdout
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  end
