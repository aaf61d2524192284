(* Isolated replays for the traced run: each drives one layer's public
   functions alone, at the shape a workload gives it (queue occupancy,
   clock width, keys per node, log length), and reports host CPU per
   operation.  Inputs come from a fixed xorshift stream, so a replay does
   the same work on every run. *)

open Sss_sim
open Sss_data

(* CPU spent per batch is read from the process clock; batches repeat
   until [budget] CPU seconds are spent. *)
let budget = 0.25

let xorshift seed =
  let st = ref (seed lor 1) in
  fun () ->
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    x land max_int

(* Repeat [batch] (which does [ops] operations and returns the CPU seconds
   they took) until the budget is spent; nanoseconds per operation. *)
let per_op ~ops batch =
  let spent = ref 0.0 and done_ = ref 0 in
  while !spent < budget do
    spent := !spent +. batch ();
    done_ := !done_ + ops
  done;
  !spent *. 1e9 /. float_of_int !done_

let timed f =
  let c = Trace.cpu () in
  f ();
  Trace.cpu () -. c

(* Engine only: [chains] self-rescheduling [Sim.schedule_apply] callbacks
   keep the event queue at the workload's occupancy, with a network-like
   delay mix (mostly short hops, some timers, a few far-future ones). *)
let engine ~chains ~events =
  let sim = Sim.create () in
  let rand = xorshift 0x1e3779b9 in
  let unit_float () = float_of_int (rand () land 0xffff) /. 65536.0 in
  let n = ref 0 in
  let rec step () =
    incr n;
    if !n < events then begin
      let r = unit_float () in
      let delay =
        if r < 0.80 then 30e-6 *. unit_float ()
        else if r < 0.95 then 1e-4 +. (9e-4 *. unit_float ())
        else 1e-3 +. (49e-3 *. unit_float ())
      in
      Sim.schedule_apply sim ~delay step ()
    end
  in
  for _ = 1 to max 1 chains do
    Sim.schedule_apply sim ~delay:(1e-5 *. unit_float ()) step ()
  done;
  let dt = timed (fun () -> Sim.run sim) in
  float_of_int (Sim.events_processed sim) /. dt

(* A strictly increasing stream of commit clocks of width [nodes]: each
   bumps one pseudo-random entry. *)
let clock_stream ~nodes ~count seed =
  let rand = xorshift seed in
  let cur = Array.make nodes 0 in
  Array.init count (fun _ ->
      let i = rand () mod nodes in
      cur.(i) <- cur.(i) + 1;
      Vclock.of_array cur)

(* Mvstore at [nodes]-wide clocks and [keys] keys: [install] of ~4
   versions per key into a fresh store, and [select] of the newest
   version visible under a bound that hides the newest quarter. *)
let mvstore ~nodes ~keys =
  let keys = max 1 keys in
  let installs = 4 * keys in
  let clocks = clock_stream ~nodes ~count:installs 0x5eed in
  let rand = xorshift 0xbeef in
  let targets = Array.init installs (fun _ -> rand () mod keys) in
  let writer = { Ids.node = 0; local = 1 } in
  let fresh () =
    let st = Mvstore.create ~nodes in
    Mvstore.reserve st keys;
    for k = 0 to keys - 1 do
      Mvstore.init_key st k ~value:"init"
    done;
    st
  in
  let fill st =
    for i = 0 to installs - 1 do
      Mvstore.install st targets.(i) ~value:"v" ~vc:clocks.(i) ~writer
    done
  in
  let install_ns = per_op ~ops:installs (fun () ->
    let st = fresh () in
    timed (fun () -> fill st))
  in
  let st = fresh () in
  fill st;
  let bound = clocks.(3 * installs / 4) in
  let skip vc = not (Vclock.leq vc bound) in
  let probes = Array.init 4096 (fun _ -> rand () mod keys) in
  let select_ns = per_op ~ops:(Array.length probes) (fun () ->
    timed (fun () ->
      Array.iter (fun k -> ignore (Sys.opaque_identity (Mvstore.select st k ~skip))) probes))
  in
  (select_ns, install_ns)

(* [Vclock.max] over pairs of concurrent [nodes]-wide clocks (neither
   dominates, so every call builds a fresh clock). *)
let vclock_max ~nodes =
  let a = clock_stream ~nodes ~count:1024 0xa and b = clock_stream ~nodes ~count:1024 0xb in
  let ops = 100_000 in
  per_op ~ops (fun () ->
      timed (fun () ->
          for i = 0 to ops - 1 do
            ignore (Sys.opaque_identity (Vclock.max a.(i land 1023) b.((i * 7) land 1023)))
          done))

(* [Nlog.visible_max] on a log of [entries] commits, for a reader that has
   read from one remote node with a bound at the log's midpoint. *)
let nlog_visible_max ~nodes ~entries =
  let entries = max 2 entries in
  let clocks = clock_stream ~nodes ~count:entries 0x10c in
  let log = Nlog.create ~nodes ~node:0 in
  Array.iteri
    (fun i vc -> Nlog.add log ~txn:{ Ids.node = 0; local = i + 1 } ~vc ~ws:[] ~at:(float_of_int i))
    clocks;
  let has_read = Array.make nodes false in
  has_read.(nodes - 1) <- true;
  let bound = clocks.(entries / 2) in
  let ops = 256 in
  per_op ~ops (fun () ->
      timed (fun () ->
          for _ = 1 to ops do
            ignore
              (Sys.opaque_identity (Nlog.visible_max log ~has_read ~bound ~cutoff:max_int))
          done))
