type config = {
  arrival_rate_ops_per_s : float;
  batch : int;
  submit_us : float;
  per_op_us : float;
  read_us : float;
  write_us : float;
  trim_us : float;
  retry_us : float;
  gc_us : float;
  relocate_us : float;
  reclaim_us : float;
  repair_us : float;
  error_us : float;
}

let default_config =
  {
    arrival_rate_ops_per_s = 5_000.;
    batch = 16;
    submit_us = 20.;
    per_op_us = 2.;
    read_us = 60.;
    write_us = 180.;
    trim_us = 5.;
    retry_us = 100.;
    gc_us = 5_000.;
    relocate_us = 760.;
    reclaim_us = 60.;
    (* one live-repair escalation ~ a replica read off another node plus
       the in-place rewrite: network round-trip dominated, far cheaper
       than surfacing the error to the application but well above a
       local read *)
    repair_us = 2_000.;
    error_us = 10_000.;
  }

type outcome = {
  issued : int;
  completed : int;
  read_errors : int;
  unmapped_reads : int;
  write_errors : int;
  throttled_ops : int;
  throttle_us : float;
  slo_violations : int;
  died : bool;
  end_us : float;
  all : Lathist.t;
  reads : Lathist.t;
  writes : Lathist.t;
  accounts : Tenant.Accounts.t;
  cause_mix : Obs.Topk.Counts.t;
}

let bg_cost config (before : Ftl.Device_intf.bg_stats)
    (after : Ftl.Device_intf.bg_stats) =
  (float_of_int (after.gc_runs - before.gc_runs) *. config.gc_us)
  +. float_of_int (after.relocated_opages - before.relocated_opages)
     *. config.relocate_us
  +. float_of_int (after.read_retries - before.read_retries) *. config.retry_us
  +. float_of_int (after.read_reclaims - before.read_reclaims)
     *. config.reclaim_us
  (* live repair prices into the op that triggered it — the recovery
     latency lands in the tail percentiles instead of the flat
     [error_us] host penalty an unrecoverable read would pay *)
  +. float_of_int (after.live_repair_attempts - before.live_repair_attempts)
     *. config.repair_us

(* The replay's simulated clocks, kept in one all-float record so the
   per-op updates store unboxed floats. *)
type clocks = {
  mutable arrival : float;
  mutable device_free : float;
  mutable start : float;  (* the current op's service start *)
  mutable throttle_us : float;
}

type tally = {
  mutable issued : int;
  mutable completed : int;
  mutable read_errors : int;
  mutable unmapped_reads : int;
  mutable write_errors : int;
  mutable throttled_ops : int;
  mutable slo_violations : int;
  mutable died : bool;
}

(* Queue the op behind its tenant's bucket, pushing [clocks.start] past
   each delay; true when the op had to wait. *)
let rec qos_wait qos accounts tally clocks ~tenant attempts =
  match Qos.admit qos ~tenant ~now_us:clocks.start with
  | `Ok ->
      if attempts > 0 then begin
        tally.throttled_ops <- tally.throttled_ops + 1;
        Tenant.Accounts.record_throttle accounts ~tenant
      end;
      attempts > 0
  | `Delay d ->
      clocks.throttle_us <- clocks.throttle_us +. d;
      clocks.start <- clocks.start +. d;
      (* Refill rounding can leave the bucket a hair short of a full
         token; after a few laps let the op through. *)
      if attempts < 3 then
        qos_wait qos accounts tally clocks ~tenant (attempts + 1)
      else begin
        tally.throttled_ops <- tally.throttled_ops + 1;
        Tenant.Accounts.record_throttle accounts ~tenant;
        true
      end

(* Placeholder for [run]'s previous-op snapshot before op 0, which is a
   batch head and takes its own. *)
let no_stats =
  {
    Ftl.Device_intf.gc_runs = 0;
    relocated_opages = 0;
    read_retries = 0;
    read_reclaims = 0;
    live_repair_attempts = 0;
    live_repairs = 0;
  }

(* [Stdlib.max] specialised to floats (same result, no boxing). *)
let fmax (a : float) b = if a >= b then a else b

let run ?(config = default_config) ?qos ?intensity ?on_batch ~population ~trace
    ~device () =
  if config.batch < 1 then invalid_arg "Replay.run: batch must be >= 1";
  if config.arrival_rate_ops_per_s <= 0. then
    invalid_arg "Replay.run: arrival rate must be positive";
  let qos =
    Option.map
      (fun c -> Qos.create c ~weights:(Tenant.qos_weights population))
      qos
  in
  let accounts = Tenant.Accounts.create population in
  let cause_mix = Obs.Topk.Counts.create ~k:16 () in
  let all = Lathist.create () in
  let read_lat = Lathist.create () in
  let write_lat = Lathist.create () in
  let tally =
    {
      issued = 0;
      completed = 0;
      read_errors = 0;
      unmapped_reads = 0;
      write_errors = 0;
      throttled_ops = 0;
      slo_violations = 0;
      died = false;
    }
  in
  let clocks = { arrival = 0.; device_free = 0.; start = 0.; throttle_us = 0. } in
  let capacity = ref (Ftl.Device_intf.logical_capacity device) in
  let base_gap = 1e6 /. config.arrival_rate_ops_per_s in
  let n_tenants = Tenant.tenants population in
  (* Op [k]'s [after] snapshot is op [k+1]'s [before]: nothing touches
     the device between them except the batch hook, so batch heads take
     a fresh one. *)
  let last_after = ref no_stats in
  (try
     for k = 0 to Workload.Trace.length trace - 1 do
       (* Batch boundary: fire the hook (chaos injection), refresh the
          capacity a shrinking device exports, pay the submission
          overhead once. *)
       let batch_head = k mod config.batch = 0 in
       if batch_head then begin
         (match on_batch with
         | Some f -> f ~batch:(k / config.batch)
         | None -> ());
         capacity := Ftl.Device_intf.logical_capacity device;
         if !capacity <= 0 || not (Ftl.Device_intf.alive device) then begin
           tally.died <- true;
           raise Exit
         end
       end;
       let gap =
         match intensity with
         | Some f -> base_gap /. Stdlib.max 1e-6 (f ~op:k)
         | None -> base_gap
       in
       clocks.arrival <- clocks.arrival +. gap;
       tally.issued <- tally.issued + 1;
       let tenant =
         ((Workload.Trace.tenant trace k mod n_tenants) + n_tenants)
         mod n_tenants
       in
       let lba =
         let raw = Workload.Trace.lba trace k in
         ((raw mod !capacity) + !capacity) mod !capacity
       in
       (* Queue behind the device, then behind the tenant's bucket. *)
       clocks.start <- fmax clocks.arrival clocks.device_free;
       let op_throttled =
         match qos with
         | None -> false
         | Some qos -> qos_wait qos accounts tally clocks ~tenant 0
       in
       let kind = Workload.Trace.kind trace k in
       let before =
         if batch_head then Ftl.Device_intf.bg_stats device else !last_after
       in
       let base =
         match kind with
         | Workload.Access.Read -> (
             match Ftl.Device_intf.read device ~lba with
             | Ok _ -> config.read_us
             | Error `Unmapped ->
                 tally.unmapped_reads <- tally.unmapped_reads + 1;
                 config.read_us
             | Error `Uncorrectable ->
                 tally.read_errors <- tally.read_errors + 1;
                 config.read_us +. config.error_us
             | Error (`Dead | `Out_of_range) ->
                 tally.read_errors <- tally.read_errors + 1;
                 config.read_us +. config.error_us)
         | Workload.Access.Write -> (
             match Ftl.Device_intf.write device ~lba ~payload:k with
             | Ok () -> config.write_us
             | Error `Out_of_range ->
                 (* The device shrank under this batch; retry inside the
                    fresh window before giving up on the op. *)
                 let capacity' =
                   Stdlib.max 1 (Ftl.Device_intf.logical_capacity device)
                 in
                 capacity := capacity';
                 (match
                    Ftl.Device_intf.write device ~lba:(lba mod capacity')
                      ~payload:k
                  with
                 | Ok () -> ()
                 | Error _ -> tally.write_errors <- tally.write_errors + 1);
                 config.write_us
             | Error (`Dead | `No_space) ->
                 tally.write_errors <- tally.write_errors + 1;
                 tally.died <- true;
                 raise Exit)
         | Workload.Access.Trim ->
             Ftl.Device_intf.trim device ~lba;
             config.trim_us
       in
       let after = Ftl.Device_intf.bg_stats device in
       last_after := after;
       let service =
         config.per_op_us
         +. (if batch_head then config.submit_us else 0.)
         +. base
         +. bg_cost config before after
       in
       let completion = clocks.start +. service in
       clocks.device_free <- completion;
       let latency = completion -. clocks.arrival in
       tally.completed <- tally.completed + 1;
       (* Root-cause attribution: which background activities billed
          time into this op's latency. *)
       let causes =
         Obs.Cause.of_flags ~gc:(after.gc_runs > before.gc_runs)
           ~relocation:(after.relocated_opages > before.relocated_opages)
           ~retry:(after.read_retries > before.read_retries)
           ~escalation:
             (after.live_repair_attempts > before.live_repair_attempts)
           ~scrub:(after.read_reclaims > before.read_reclaims)
           ~qos_throttle:op_throttled
       in
       Lathist.observe_tagged all latency ~tags:causes;
       (match kind with
       | Workload.Access.Read ->
           Lathist.observe_tagged read_lat latency ~tags:causes
       | Workload.Access.Write ->
           Lathist.observe_tagged write_lat latency ~tags:causes
       | Workload.Access.Trim -> ());
       if causes <> Obs.Cause.none then
         Obs.Topk.Counts.add cause_mix (Obs.Cause.to_string causes);
       Tenant.Accounts.record_op accounts ~tenant
         ~read:(kind = Workload.Access.Read);
       if latency > (Tenant.profile_of population tenant).Tenant.slo_us then begin
         tally.slo_violations <- tally.slo_violations + 1;
         Tenant.Accounts.record_violation accounts ~tenant
       end
     done
   with Exit -> ());
  {
    issued = tally.issued;
    completed = tally.completed;
    read_errors = tally.read_errors;
    unmapped_reads = tally.unmapped_reads;
    write_errors = tally.write_errors;
    throttled_ops = tally.throttled_ops;
    throttle_us = clocks.throttle_us;
    slo_violations = tally.slo_violations;
    died = tally.died;
    end_us = clocks.device_free;
    all;
    reads = read_lat;
    writes = write_lat;
    accounts;
    cause_mix;
  }
