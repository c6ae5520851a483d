type t = int

let none = 0
let gc = 1
let relocation = 2
let retry = 4
let escalation = 8
let scrub = 16
let qos_throttle = 32
let width = 6

let names =
  [| "gc"; "relocation"; "retry"; "escalation"; "scrub"; "qos-throttle" |]

let name_of_bit i =
  if i < 0 || i >= width then invalid_arg "Cause.name_of_bit" else names.(i)

let union = ( lor )
let mem set cause = set land cause <> 0

let render set =
  if set = none then "none"
  else begin
    let parts = ref [] in
    for i = width - 1 downto 0 do
      if set land (1 lsl i) <> 0 then parts := names.(i) :: !parts
    done;
    String.concat "+" !parts
  end

(* Every set of the [width] known causes, rendered once: the replayer
   names the cause set of each tagged op. *)
let rendered = Array.init (1 lsl width) render

let to_string set =
  if set >= 0 && set < Array.length rendered then rendered.(set)
  else render set

let of_flags ~gc:g ~relocation:rel ~retry:rt ~escalation:esc ~scrub:sc
    ~qos_throttle:qt =
  (if g then gc else 0)
  lor (if rel then relocation else 0)
  lor (if rt then retry else 0)
  lor (if esc then escalation else 0)
  lor (if sc then scrub else 0)
  lor if qt then qos_throttle else 0
