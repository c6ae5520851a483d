type event = { tenant : int; access : Access.t }

(* Column storage: event [i] is [tenants.(i)], [kinds.(i)], [lbas.(i)]
   for [i < count]; the arrays grow by doubling.  Replay walks the
   columns by index, so a pass over the trace allocates nothing. *)
type t = {
  mutable tenants : int array;
  mutable kinds : Access.kind array;
  mutable lbas : int array;
  mutable count : int;
}

let create () = { tenants = [||]; kinds = [||]; lbas = [||]; count = 0 }

let grow t =
  let capacity = Stdlib.max 16 (2 * t.count) in
  let extend column fill =
    let fresh = Array.make capacity fill in
    Array.blit column 0 fresh 0 t.count;
    fresh
  in
  t.tenants <- extend t.tenants 0;
  t.kinds <- extend t.kinds Access.Read;
  t.lbas <- extend t.lbas 0

let record_event t { tenant; access = { Access.kind; lba } } =
  if t.count = Array.length t.lbas then grow t;
  t.tenants.(t.count) <- tenant;
  t.kinds.(t.count) <- kind;
  t.lbas.(t.count) <- lba;
  t.count <- t.count + 1

let record t access = record_event t { tenant = 0; access }

let length t = t.count

let check t i name =
  if i < 0 || i >= t.count then invalid_arg ("Trace." ^ name ^ ": index")

let tenant t i =
  check t i "tenant";
  Array.unsafe_get t.tenants i

let kind t i =
  check t i "kind";
  Array.unsafe_get t.kinds i

let lba t i =
  check t i "lba";
  Array.unsafe_get t.lbas i

let capture t pattern rng ~n =
  for _ = 1 to n do
    record t (Pattern.next pattern rng)
  done

let access_at t i = { Access.kind = t.kinds.(i); lba = t.lbas.(i) }

let iter t f =
  for i = 0 to t.count - 1 do
    f (access_at t i)
  done

let iter_events t f =
  for i = 0 to t.count - 1 do
    f { tenant = t.tenants.(i); access = access_at t i }
  done

let to_list t = List.init t.count (access_at t)

let to_events t =
  List.init t.count (fun i -> { tenant = t.tenants.(i); access = access_at t i })

let of_events events =
  let t = create () in
  List.iter (record_event t) events;
  t

let of_list accesses =
  let t = create () in
  List.iter (record t) accesses;
  t

(* --- on-disk format ------------------------------------------------------- *)

(* Version 1: a line-based format.  The first line is the magic+version
   header; every following non-empty line is one access,

     <tenant> <op> <lba>

   with <op> one of [r] (read), [w] (write), [d] (discard/trim), and
   <tenant>/<lba> decimal integers.  Line-based keeps traces diffable and
   greppable; the version header lets the format evolve without silently
   misreading old artifacts. *)

let format_version = 1
let magic = "salamander-trace"

let op_char = function
  | Access.Read -> 'r'
  | Access.Write -> 'w'
  | Access.Trim -> 'd'

let op_of_char = function
  | 'r' -> Some Access.Read
  | 'w' -> Some Access.Write
  | 'd' -> Some Access.Trim
  | _ -> None

let to_string t =
  let buffer = Buffer.create (16 * t.count + 32) in
  Buffer.add_string buffer (Printf.sprintf "%s v%d\n" magic format_version);
  iter_events t (fun { tenant; access } ->
      Buffer.add_string buffer
        (Printf.sprintf "%d %c %d\n" tenant (op_char access.Access.kind)
           access.Access.lba));
  Buffer.contents buffer

let of_string text =
  let fail line msg = Error (Printf.sprintf "trace line %d: %s" line msg) in
  match String.split_on_char '\n' text with
  | [] -> Error "trace: empty input"
  | header :: body ->
      let expected = Printf.sprintf "%s v%d" magic format_version in
      if String.trim header <> expected then
        Error
          (Printf.sprintf "trace: bad header %S (expected %S)" header expected)
      else begin
        let t = create () in
        let rec go line_no = function
          | [] -> Ok t
          | line :: rest ->
              let line' = String.trim line in
              if line' = "" then go (line_no + 1) rest
              else begin
                match String.split_on_char ' ' line' with
                | [ tenant; op; lba ] when String.length op = 1 -> (
                    match
                      ( int_of_string_opt tenant,
                        op_of_char op.[0],
                        int_of_string_opt lba )
                    with
                    | Some tenant, Some kind, Some lba ->
                        record_event t
                          { tenant; access = { Access.kind; lba } };
                        go (line_no + 1) rest
                    | _ -> fail line_no (Printf.sprintf "cannot parse %S" line')
                    )
                | _ -> fail line_no (Printf.sprintf "cannot parse %S" line')
              end
        in
        go 2 body
      end

let to_file t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error msg -> Error ("trace: " ^ msg)
