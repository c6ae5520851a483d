(** Snapshot exporters: pretty console table, Prometheus-style text
    exposition, and a JSONL event log (one JSON object per metric per
    line) with a parser for round-tripping. *)

val pp_table : Format.formatter -> Registry.sample list -> unit
(** Human-readable table: one row per metric; histograms summarized as
    count/mean/p50/p90/p99/max. *)

val to_prometheus : Registry.sample list -> string
(** Prometheus text exposition format.  Counters and gauges map
    directly; a histogram [h] becomes [h{quantile="0.5|0.9|0.99"}],
    [h_count] and [h_sum] summary series.  An {e empty} histogram
    renders as [h_count 0] and [h_sum 0] with no quantile lines (its
    summary statistics are NaN and have no exposition meaning).
    [# HELP] / [# TYPE] headers are emitted once per metric name.
    Label values are escaped per the exposition format: ['\\'], ['"']
    and newline render as ["\\\\"], ["\\\""] and ["\\n"]. *)

val to_jsonl : Registry.sample list -> string
(** One line per sample:
    [{"name":...,"labels":{...},"type":"counter","value":42}].
    Histogram lines carry
    ["count","mean","min","max","p50","p90","p99"] fields.  Non-finite
    floats are encoded as null — in particular an empty histogram is
    rendered explicitly as [count 0] with null statistics. *)

val of_jsonl : string -> Registry.sample list
(** Parse text produced by {!to_jsonl} back into samples (help strings
    are not round-tripped; non-finite floats come back as [nan]).
    Histogram quantile fields missing from older artifacts read as
    [nan] rather than failing the parse.
    @raise Failure on malformed input. *)

val write_file : path:string -> string -> unit
(** Write exporter output to [path], with ["-"] meaning stdout. *)

(** {2 Number writer and JSON building blocks}

    Shared by every exporter here and by the monitor's timeline and
    Chrome-trace exporters and the fleet report, so every artifact
    escapes and formats numbers identically.  The [add_*] writers
    append to a caller-owned buffer; none keeps shared mutable state,
    so they are safe on any domain.  Each float writer produces exactly
    the bytes of the [Printf] conversion named in its doc, but writes
    integer-valued floats below 1e15 as digits without going through a
    format string. *)

val add_int : Buffer.t -> int -> unit
(** Bytes of [string_of_int]. *)

val add_g17 : Buffer.t -> float -> unit
(** Bytes of [Printf.sprintf "%.17g"] (round-trip exact; non-finite
    values render as the C library prints them). *)

val add_json_float : Buffer.t -> float -> unit
(** Deterministic JSON number: integers as ["%.0f"], others as
    ["%.17g"], non-finite as [null]. *)

val json_float : float -> string
(** {!add_json_float} into a fresh string. *)

val add_float_str : Buffer.t -> float -> unit
(** The short form the console table, Prometheus values and alert
    trace events use: integers below 1e15 as ["%.0f"], others as
    ["%.6g"]. *)

val float_str : float -> string
(** {!add_float_str} into a fresh string. *)

val add_json_escaped : Buffer.t -> string -> unit
(** Append a string escaped for inclusion inside JSON double quotes. *)

val json_escape : string -> string
(** {!add_json_escaped} into a fresh string. *)

val add_json_string : Buffer.t -> string -> unit
(** Append a string as a quoted, escaped JSON string. *)

val add_json_labels : Buffer.t -> Registry.Labels.t -> unit
(** Append a label set as a flat JSON object of strings, in label
    order. *)
