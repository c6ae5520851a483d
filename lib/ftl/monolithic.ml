(** A monolithic engine-backed drive: one fixed ECC code over one flat
    address space, retiring a whole erase block once its weakest page
    outgrows that code.  The designs differ only in what a retired block
    costs ({!retirement}); {!Baseline_ssd} and {!Cvss} fix the policy. *)

type retirement =
  | Brick
      (** the baseline datacenter SSD: retired blocks are replaced from
          spare space, and the drive bricks (goes read-only) once more
          than {!fail_threshold} of its blocks are bad *)
  | Shrink
      (** CVSS: each retired block removes a block's worth of LBAs from
          the top of the address space (trimming the data there), and the
          drive dies once capacity falls below {!min_capacity_fraction}
          of the initial *)

(** Spare fraction of physical space. *)
let over_provisioning = 0.07

(** Bad-block fraction past which [Brick] dies (the field study [14]). *)
let fail_threshold = 0.025

(** Capacity fraction below which [Shrink] dies (the paper's CVSS). *)
let min_capacity_fraction = 0.5

(** What {!Baseline_ssd} and {!Cvss} export, over an abstract [t]. *)
module type DRIVE = sig
  type t

  val create :
    ?registry:Telemetry.Registry.t ->
    geometry:Flash.Geometry.t ->
    model:Flash.Rber_model.t ->
    rng:Sim.Rng.t ->
    unit ->
    t
  (** Telemetry binds against [registry] (default: the null registry,
      i.e. telemetry off). *)

  val engine : t -> Engine.t

  val retired_blocks : t -> int
  (** Blocks retired so far. *)

  val bad_block_fraction : t -> float
  (** [retired_blocks] over the device's blocks. *)

  val shrunk_opages : t -> int
  (** LBAs lost to shrinking so far (each was trimmed away; a host using
      the device re-replicates or rebalances that data, which is the
      recovery traffic the paper's §4.3 compares against).  Always 0 for
      a [Brick] drive. *)

  include Device_intf.S with type t := t
end

type t = {
  retirement : retirement;
  ecc : Ecc_profile.t;
  geometry : Flash.Geometry.t;
  engine : Engine.t;
  block_bad : bool array;
  mutable retired_blocks : int;
  mutable capacity : int;
  initial_capacity : int;
  mutable shrunk : int;
  mutable dead : bool;
}

(* The moment the *weakest* page of a block would exceed the default
   code's tolerance after the erase it just received, the whole block is
   retired, and the policy decides what that costs the drive. *)
let on_block_erased t ~block =
  let geometry = t.geometry in
  if not t.block_bad.(block) then begin
    let pages = geometry.Flash.Geometry.pages_per_block in
    let chip = Engine.chip t.engine in
    let tired = ref false in
    for page = 0 to pages - 1 do
      let rber = Flash.Chip.rber chip ~block ~page in
      if Ecc_profile.page_is_tired t.ecc ~rber then tired := true
    done;
    if !tired then begin
      t.block_bad.(block) <- true;
      t.retired_blocks <- t.retired_blocks + 1;
      match t.retirement with
      | Brick ->
          if
            float_of_int t.retired_blocks
            > fail_threshold *. float_of_int geometry.Flash.Geometry.blocks
          then t.dead <- true
      | Shrink ->
          (* Surrender a block's worth of LBAs from the top of the address
             space.  The host file system absorbs the loss from its free
             space; any data there is trimmed away here and the host
             re-creates it elsewhere (counted in [shrunk]). *)
          let block_opages = pages * geometry.Flash.Geometry.opages_per_fpage in
          let new_capacity = Stdlib.max 0 (t.capacity - block_opages) in
          for lba = new_capacity to t.capacity - 1 do
            Engine.discard t.engine ~logical:lba;
            t.shrunk <- t.shrunk + 1
          done;
          t.capacity <- new_capacity;
          if
            float_of_int t.capacity
            < min_capacity_fraction *. float_of_int t.initial_capacity
          then t.dead <- true
    end
  end

let create ~retirement ?registry ~geometry ~model ~rng () =
  let ecc = Ecc_profile.of_geometry geometry in
  let chip =
    Flash.Chip.create ?registry ~rng:(Sim.Rng.split rng) ~geometry ~model ()
  in
  let block_bad = Array.make geometry.Flash.Geometry.blocks false in
  let opages = geometry.Flash.Geometry.opages_per_fpage in
  let policy =
    {
      Policy.data_slots =
        (fun ~block ~page:_ -> if block_bad.(block) then 0 else opages);
      read_fail_prob =
        (fun ~rber ~block:_ ~page:_ ->
          Ecc_profile.opage_read_fail_prob ecc ~rber);
      should_reclaim =
        (fun ~rber ~block:_ ~page:_ -> Ecc_profile.should_reclaim ecc ~rber);
      on_block_erased = (fun ~block:_ -> ());
    }
  in
  let initial_capacity =
    int_of_float
      (float_of_int (Flash.Geometry.total_opages geometry)
      *. (1. -. over_provisioning))
  in
  let engine =
    Engine.create ?registry ~chip ~rng:(Sim.Rng.split rng) ~policy
      ~logical_capacity:initial_capacity ()
  in
  (* Health-monitor input: the correction ceiling this design can ever
     bring to bear (one fixed code — no deeper levels to fall back to;
     a shrinking drive gives up capacity, never changes the code). *)
  (match registry with
  | Some registry ->
      Telemetry.Registry.Gauge.set
        (Telemetry.Registry.gauge registry
           ~help:"Highest RBER the device's strongest code corrects"
           "device_tolerable_rber")
        ecc.Ecc_profile.tolerable_rber
  | None -> ());
  let t =
    {
      retirement;
      ecc;
      geometry;
      engine;
      block_bad;
      retired_blocks = 0;
      capacity = initial_capacity;
      initial_capacity;
      shrunk = 0;
      dead = false;
    }
  in
  policy.Policy.on_block_erased <- on_block_erased t;
  t

let engine t = t.engine
let retired_blocks t = t.retired_blocks
let shrunk_opages t = t.shrunk

let bad_block_fraction t =
  float_of_int t.retired_blocks /. float_of_int t.geometry.Flash.Geometry.blocks

let label t = match t.retirement with Brick -> "baseline" | Shrink -> "cvss"

let write t ~lba ~payload =
  if t.dead then Error `Dead
  else if lba < 0 || lba >= t.capacity then Error `Out_of_range
  else
    match Engine.write t.engine ~logical:lba ~payload with
    | Ok () -> Ok () (* the drive may have died *during* this write;
                        callers observe that through [alive] *)
    | Error `No_space ->
        t.dead <- true;
        Error `No_space

(* Flat LBAs are engine logicals, so the translation is the identity.
   [t.capacity] is re-read at each segment start, so a mid-stream shrink
   (the erase hook fires inside the segment, which then ends with
   [Stream_erased]) tightens the limit before any further write — draws
   into the surrendered range come back as [Stream_resync], the per-op
   [`Out_of_range]. *)
let write_stream t ~rng ~window ~payload_base ~budget =
  Device_intf.Engine_backed.write_stream t.engine
    ~dead:(fun () -> t.dead)
    ~segment:(fun () -> (t.capacity, Fun.id))
    ~on_erased:ignore
    ~on_no_space:(fun ~lba:_ ~payload:_ ->
      t.dead <- true;
      Some Device_intf.Stream_dead)
    ~rng ~window ~payload_base ~budget

(* Reads reach the whole initial range: LBAs a shrink surrendered were
   trimmed and answer [`Unmapped]. *)
let read t ~lba =
  if lba < 0 || lba >= t.initial_capacity then Error `Out_of_range
  else
    (Engine.read t.engine ~logical:lba
      :> (int, Device_intf.read_error) result)

let trim t ~lba =
  if not t.dead && lba >= 0 && lba < t.initial_capacity then
    Engine.discard t.engine ~logical:lba

let alive t = not t.dead
let logical_capacity t = if t.dead then 0 else t.capacity
let initial_capacity t = t.initial_capacity
let host_writes t = Engine.host_writes t.engine
let write_amplification t = Engine.write_amplification t.engine
let bg_stats t = Device_intf.Engine_backed.bg_stats t.engine

let wear_stats t =
  Device_intf.Engine_backed.wear_stats t.engine
    ~tolerable_rber:t.ecc.Ecc_profile.tolerable_rber

let set_recovery_hook t ?config hook =
  (* flat LBAs map 1:1 onto engine logicals (reads above a shrunk
     capacity still resolve, exactly like [read]) *)
  Engine.set_recovery_hook t.engine ?config
    (Option.map (fun f ~logical -> f ~lba:logical) hook)
