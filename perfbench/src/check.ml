(* Output check: the simulated counts of a run against the values
   stored for each shipped seed, and against each other.

   The stored values are counts and sums only, never quantiles, so a
   change to how histograms report percentiles leaves them valid.  A
   seed with no stored values is checked by the invariants each
   workload asserts on every run (see [Workloads.outcome.errors]). *)

type expected = (string * int, (string * int) list) Hashtbl.t

(* One line per count: workload, seed, key, value, tab-separated;
   '#' starts a comment. *)
let parse contents : expected =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | [ workload; seed; key; value ] ->
            let k = (workload, int_of_string seed) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt table k) in
            Hashtbl.replace table k (prev @ [ (key, int_of_string value) ])
        | _ -> failwith (Printf.sprintf "expected values, line %d: malformed" (i + 1)))
    (String.split_on_char '\n' contents);
  table

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let render ~workload ~seed counts =
  String.concat ""
    (List.map
       (fun (key, v) -> Printf.sprintf "%s\t%d\t%s\t%d\n" workload seed key v)
       counts)

(* Errors of [counts] against stored [want]: every stored key must be
   present with its value, and no count may be missing from the store. *)
let against ~want counts =
  let missing =
    List.filter_map
      (fun (key, v) ->
        match List.assoc_opt key counts with
        | Some got when got = v -> None
        | Some got -> Some (Printf.sprintf "%s: %d, expected %d" key got v)
        | None -> Some (Printf.sprintf "%s: not produced" key))
      want
  in
  let unknown =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key want then None
        else Some (Printf.sprintf "%s: no stored value" key))
      counts
  in
  missing @ unknown

let lookup (expected : expected) ~workload ~seed =
  Hashtbl.find_opt expected (workload, seed)

(* Errors of the [what] run's [counts] against every key of the
   untraced run's [reference] counts. *)
let agrees ~what ~reference counts =
  List.filter_map
    (fun (key, v) ->
      match List.assoc_opt key counts with
      | Some got when got = v -> None
      | Some got -> Some (Printf.sprintf "%s: %s %d, untraced %d" key what got v)
      | None -> Some (Printf.sprintf "%s: missing from the %s run" key what))
    reference
