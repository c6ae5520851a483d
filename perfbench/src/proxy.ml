(* Transparent timing proxy around a packed device.  It implements
   [Ftl.Device_intf.S] by forwarding every call unchanged; the calls a
   workload makes per operation are timed as span leaves.  The device
   sees the same calls in the same order, so every simulated count is
   the same with or without it.  The proxy also counts the writes the
   device acknowledged, as seen at the interface. *)

type t = { inner : Ftl.Device_intf.packed; mutable accepted : int }

module Timed = struct
  type nonrec t = t

  let label t = Ftl.Device_intf.label t.inner

  let write t ~lba ~payload =
    let t0 = Clock.now_ns () and w0 = Spans.minor_words () in
    let r = Ftl.Device_intf.write t.inner ~lba ~payload in
    Spans.leaf Spans.Write ~t0 ~w0 ~units:0 ~miss:false;
    if Result.is_ok r then t.accepted <- t.accepted + 1;
    r

  let write_stream t ~rng ~window ~payload_base ~budget =
    let t0 = Clock.now_ns () and w0 = Spans.minor_words () in
    let r =
      Ftl.Device_intf.write_stream t.inner ~rng ~window ~payload_base ~budget
    in
    Spans.leaf Spans.Stream ~t0 ~w0 ~units:r.Ftl.Device_intf.accepted
      ~miss:(r.Ftl.Device_intf.status = Ftl.Device_intf.Stream_unsupported);
    t.accepted <- t.accepted + r.Ftl.Device_intf.accepted;
    r

  let read t ~lba =
    let t0 = Clock.now_ns () and w0 = Spans.minor_words () in
    let r = Ftl.Device_intf.read t.inner ~lba in
    Spans.leaf Spans.Read ~t0 ~w0 ~units:0 ~miss:false;
    r

  let trim t ~lba =
    let t0 = Clock.now_ns () and w0 = Spans.minor_words () in
    Ftl.Device_intf.trim t.inner ~lba;
    Spans.leaf Spans.Trim ~t0 ~w0 ~units:0 ~miss:false

  let bg_stats t =
    let t0 = Clock.now_ns () and w0 = Spans.minor_words () in
    let r = Ftl.Device_intf.bg_stats t.inner in
    Spans.leaf Spans.Bg_stats ~t0 ~w0 ~units:0 ~miss:false;
    r

  let alive t = Ftl.Device_intf.alive t.inner
  let logical_capacity t = Ftl.Device_intf.logical_capacity t.inner
  let initial_capacity t = Ftl.Device_intf.initial_capacity t.inner
  let host_writes t = Ftl.Device_intf.host_writes t.inner
  let write_amplification t = Ftl.Device_intf.write_amplification t.inner
  let wear_stats t = Ftl.Device_intf.wear_stats t.inner

  let set_recovery_hook t ?config hook =
    Ftl.Device_intf.set_recovery_hook t.inner ?config hook
end

let create inner = { inner; accepted = 0 }
let pack t = Ftl.Device_intf.Packed ((module Timed), t)
let wrap inner = pack (create inner)
