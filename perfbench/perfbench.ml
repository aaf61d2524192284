(* perfbench: the repository's host-cost benchmark.

     perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

   Untraced (--trace 0): runs the workload's segments again and again with
   the same seed until S seconds are used (at least three times), checks
   every run, and reports the end-to-end metrics: set-up CPU as the median
   of many set-ups, run CPU from the run that used the least, virtual-time
   metrics from the trajectory (identical on every run, which is checked
   too).  Traced (--trace 1): an untraced warm-up run, then interleaved
   rounds of a traced run of the same trajectory (spans, per-event tap,
   history), an untraced run and the same-trajectory config differentials
   until S seconds are used, then the isolated replays; it reports the
   per-layer metrics.  Human-readable lines come first; the last line is
   one JSON object with every metric.  Exit status 1 on any correctness or
   observer-effect violation. *)

module Driver = Sss_workload.Driver
module Stats = Sss_workload.Stats
open Systems

let probe_every = 256

(* The fewest untraced runs an invocation makes, however short --seconds. *)
let min_reps = 3

(* Where the traced run writes its spans, relative to the working directory. *)
let spans_dir = ".bench_out"

(* ---------- arguments ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (paper-closed|open-wide|durable-contended|all) [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  Hashtbl.iter
    (fun k _ -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    tbl;
  tbl

let arg name default conv =
  match Hashtbl.find_opt args name with
  | None -> default
  | Some v -> ( try conv v with _ -> usage ())

(* ---------- small statistics ---------- *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The highest percentile, at most p99, with at least ten samples beyond
   it (nearest rank); [None] when there are fewer than 20 samples. *)
let tail_fraction n =
  let rec go p =
    if p < 0.5 then None
    else
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      if n - rank >= 10 then Some p else go (p -. 0.01)
  in
  if n < 20 then None else go 0.99

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ---------- metric sink ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

(* With [--workload all] every name carries its workload as a prefix. *)
let prefix = ref ""
let pending : metric list ref = ref []
let reported : metric list ref = ref []
let failures : string list ref = ref []
let fail msg = failures := (!prefix ^ msg) :: !failures

let emit ?(note = "") name unit_ value =
  let value = if Float.is_finite value then value else 0.0 in
  pending := { name = !prefix ^ name; value; unit_; note } :: !pending

let print_metrics kind =
  List.iter
    (fun m ->
      Printf.printf "%s %-36s %16.6g %-8s %s\n" kind m.name m.value m.unit_ m.note)
    (List.rev !pending);
  reported := !pending @ !reported;
  pending := []

(* A latency metric, ms, from driver statistics: the median and the
   highest percentile the sample count supports. *)
let emit_latency ~median_name ~tail_name (s : Stats.t) =
  let n = Stats.count s in
  let note = Printf.sprintf "(n=%d)" n in
  (match median_name with
  | Some name -> emit ~note name "ms" (1e3 *. Stats.percentile s 0.5)
  | None -> ());
  match tail_fraction n with
  | Some p ->
      emit tail_name "ms" (1e3 *. Stats.percentile s p)
        ~note:(Printf.sprintf "(p%g, n=%d, %d beyond)" (100.0 *. p) n
                 (n - int_of_float (Float.ceil (p *. float_of_int n))))
  | None ->
      fail (Printf.sprintf "%s: only %d samples" tail_name n);
      emit tail_name "ms" 0.0 ~note

(* ---------- running and checking ---------- *)

(* One run of every segment of the workload. *)
let run_rep ?tracing (w : Workloads.t) ~seed ~traced =
  List.map
    (fun spec ->
      match run_segment ?tracing spec with
      | Ok s -> s
      | Error e ->
          fail ("run raised " ^ e);
          raise Exit)
    (w.Workloads.segments ~seed ~traced)

let check_rep (w : Workloads.t) specs (rep : segment list) =
  List.iter2
    (fun (spec : spec) s ->
      (match s.quiescent with
      | Ok () -> ()
      | Error e -> fail (Printf.sprintf "%s: not quiescent at the end of the run: %s" s.sys e));
      if s.net.Sss_net.Network.dropped <> 0 then
        fail (Printf.sprintf "%s: %d messages dropped on a healthy network" s.sys s.net.dropped);
      if s.committed = 0 then fail (s.sys ^ ": nothing committed");
      List.iter
        (fun (p, _, verdict) ->
          match verdict with
          | Ok () -> ()
          | Error e -> fail (Printf.sprintf "%s: %s violated: %s" s.sys p e))
        s.checks;
      if w.Workloads.min_checkpoints_per_node > 0 then begin
        let need = w.min_checkpoints_per_node * spec.config.Sss_kv.Config.nodes in
        let got = int_of_float (layer_value s "wal.checkpoints") in
        if got < need then
          fail (Printf.sprintf "%s: %d checkpoints, need >= %d (%d per node)" s.sys got need
                  w.min_checkpoints_per_node)
      end)
    specs rep

(* What must not change between two runs of one trajectory.  With [obs]
   (all but the config differentials) the observer's final registry must
   match too: the traced run's tap has to keep the store's own sampling. *)
let trajectory s = (s.events, s.vsecs, s.begun, s.committed, s.aborted, s.result.Driver.committed)

let same_trajectory ?(obs = true) what a b =
  List.iter2
    (fun x y ->
      if trajectory x <> trajectory y then
        fail
          (Printf.sprintf
             "%s: %s changed the trajectory (events %d vs %d, virtual s %.9g vs %.9g, committed \
              %d vs %d, aborted %d vs %d)"
             x.sys what x.events y.events x.vsecs y.vsecs x.committed y.committed x.aborted
             y.aborted)
      else if obs && x.obs_metrics <> y.obs_metrics then
        fail (Printf.sprintf "%s: %s changed the observer's metrics" x.sys what))
    a b

let attempted rep = isum (fun s -> s.begun + s.result.Driver.rejected) rep

(* ---------- untraced: end-to-end metrics ---------- *)

let end_to_end (w : Workloads.t) ~seed ~seconds ~fresh_process =
  let specs = w.Workloads.segments ~seed ~traced:false in
  let t0 = Trace.wall () in
  let rec loop reps =
    let r0 = Trace.wall () in
    let rep = run_rep w ~seed ~traced:false in
    check_rep w specs rep;
    let peak = if reps = [] then Some (Gc.quick_stat ()).Gc.top_heap_words else None in
    let reps = (rep, peak) :: reps in
    let now = Trace.wall () in
    if List.length reps < min_reps || now -. t0 +. (now -. r0) <= seconds then loop reps
    else List.rev reps
  in
  let reps = loop [] in
  let first = fst (List.hd reps) in
  let peak_words = Option.get (snd (List.hd reps)) in
  let reps = List.map fst reps in
  List.iter (fun r -> same_trajectory "re-running with the same seed" first r) (List.tl reps);
  (* More set-up samples where set-up is cheap: as many as fit in 5% of
     the run's time. *)
  let setups = ref (List.map (sum (fun s -> s.setup_cpu)) reps) in
  let extra_t0 = Trace.wall () in
  while Trace.wall () -. extra_t0 < 0.05 *. seconds do
    setups := sum setup_only specs :: !setups
  done;
  let primary = List.hd first in
  let r = primary.result in
  Printf.printf "workload %s seed %d: %d runs of %s, %.1f s wall\n" w.name seed
    (List.length reps)
    (String.concat " + " (List.map (fun s -> s.sys) first))
    (Trace.wall () -. t0);
  List.iteri
    (fun i s ->
      let cpu = median (List.map (fun rep -> (List.nth rep i).run_cpu) reps) in
      Printf.printf "segment %-8s set-up %.4f s  run %.3f CPU-s (median)  %d committed  %.0f txns/CPU-s\n"
        s.sys s.setup_cpu cpu s.committed (ratio (float s.committed) cpu))
    first;
  Printf.printf "runs: CPU-s per run %s\n"
    (String.concat " " (List.map (fun rep -> Printf.sprintf "%.3f" (sum (fun s -> s.run_cpu) rep)) reps));
  emit "setup_s" "s" (median !setups)
    ~note:
      (Printf.sprintf "(median of %d set-ups, least %.6g)" (List.length !setups)
         (List.fold_left Float.min infinity !setups));
  (* Host noise only ever adds CPU time, so the run that used the least is
     the best estimate of the program's cost. *)
  let best_cpu = List.fold_left (fun acc rep -> Float.min acc (sum (fun s -> s.run_cpu) rep)) infinity reps in
  emit "txns_per_cpu_s" "1/s"
    (ratio (float (isum (fun s -> s.committed) first)) best_cpu)
    ~note:(Printf.sprintf "(best of %d runs, %d committed per run)" (List.length reps)
             (isum (fun s -> s.committed) first));
  (* The top heap never shrinks, so only a workload that runs first in its
     process has a peak of its own. *)
  if fresh_process then
    emit "peak_heap_mb" "MB"
      (float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0)
      ~note:"(OCaml top heap after the first run)"
  else print_endline "peak_heap_mb not measured: an earlier workload in this process set the top heap";
  emit "check_s" "s"
    (median (List.map (sum (fun s -> sum (fun (_, t, _) -> t) s.checks)) reps))
    ~note:
      (match primary.checks with
      | [] -> "(no history recorded in untraced runs)"
      | c -> Printf.sprintf "(%d properties, median of %d runs)" (List.length c) (List.length reps));
  let failed =
    isum (fun s -> s.result.Driver.aborted + s.result.Driver.rejected) first
  and tried = isum (fun s -> s.result.Driver.committed + s.result.Driver.aborted + s.result.Driver.rejected) first in
  emit "failed_frac" "frac" (ratio (float failed) (float tried))
    ~note:(Printf.sprintf "(%d aborted or rejected of %d in the measured windows)" failed tried);
  emit "v_txns_per_s" "1/s" r.Driver.throughput
    ~note:(Printf.sprintf "(%s, %d committed)" primary.sys r.Driver.committed);
  emit_latency ~median_name:(Some "v_update_p50_ms") ~tail_name:"v_update_p99_ms"
    r.Driver.update_latency;
  emit_latency ~median_name:(Some "v_ro_p50_ms") ~tail_name:"v_ro_p99_ms"
    r.Driver.ro_latency;
  if primary.result.Driver.offered > 0 then
    emit_latency ~median_name:None ~tail_name:"v_sojourn_p99_ms" r.Driver.sojourn;
  emit "run_cpu_s" "s" (median (List.map (sum (fun s -> s.run_cpu)) reps))
    ~note:"(median, all segments)";
  emit "run_wall_s" "s" (median (List.map (sum (fun s -> s.run_wall)) reps))
    ~note:"(median, all segments; beside run_cpu_s for audit)";
  print_metrics "e2e";
  attempted first

(* ---------- traced: per-layer metrics ---------- *)

(* One round of the traced mode's interleaved comparisons. *)
type round = {
  traced : segment list;
  base : segment list;  (* untraced, default config *)
  gc_on : segment option;  (* the primary with Config.gc on *)
  obs_off : segment option;  (* the primary with observe off *)
}

let per_layer (w : Workloads.t) ~seed ~seconds =
  let specs = w.Workloads.segments ~seed ~traced:true in
  let primary = List.hd (w.segments ~seed ~traced:false) in
  (* The first run warms the heap and fixes the trajectory every later run
     must repeat. *)
  let warm = run_rep w ~seed ~traced:false in
  check_rep w (w.Workloads.segments ~seed ~traced:false) warm;
  let variant what on config =
    if not on then None
    else
      match run_segment { primary with config } with
      | Error e ->
          fail (what ^ " run raised " ^ e);
          raise Exit
      | Ok s ->
          same_trajectory ~obs:false what [ List.hd warm ] [ s ];
          Some s
  in
  (* Traced, untraced and the config variants run in turn, round after
     round, until --seconds are used (at least [min_reps] rounds).  Host
     noise on a shared machine only ever adds CPU time, so each CPU figure
     is the best (least) over the rounds, and the rounds interleave so that
     a slow spell falls on both sides of a comparison.  The spans are kept
     from the first traced run only. *)
  let spans = Trace.create_spans () in
  let t0 = Trace.wall () in
  let rec loop rounds =
    let r0 = Trace.wall () in
    let tracing = { spans = (if rounds = [] then spans else Trace.create_spans ()); probe_every } in
    let traced = run_rep ~tracing w ~seed ~traced:true in
    check_rep w specs traced;
    same_trajectory "tracing" warm traced;
    let base = run_rep w ~seed ~traced:false in
    same_trajectory "re-running with the same seed" warm base;
    let gc_on = variant "Config.gc" w.gc_differential { primary.config with gc = true } in
    let obs_off =
      variant "Config.observe" w.observe_differential { primary.config with observe = false }
    in
    let rounds = { traced; base; gc_on; obs_off } :: rounds in
    let now = Trace.wall () in
    if List.length rounds < min_reps || now -. t0 +. (now -. r0) <= seconds then loop rounds
    else List.rev rounds
  in
  let rounds = loop [] in
  let best f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity rounds in
  let cpu rep = sum (fun s -> s.run_cpu) rep in
  let seg_cpu sys rep = match List.find_opt (fun s -> s.sys = sys) rep with Some s -> s.run_cpu | None -> nan in
  let first = List.hd rounds in
  let base = first.base and traced = first.traced in
  let bp = List.hd base and tp = List.hd traced in
  let base_cpu = best (fun r -> cpu r.base) and primary_cpu = best (fun r -> seg_cpu bp.sys r.base) in
  let nodes = (List.hd specs).config.Sss_kv.Config.nodes in
  let per_txn s x = ratio x (float s.committed) in
  let committed = float (isum (fun s -> s.committed) base) in
  let rounds_note = Printf.sprintf "(best of %d interleaved rounds)" (List.length rounds) in
  Printf.printf "workload %s seed %d: %d rounds of traced and untraced %s, %d spans\n" w.name seed
    (List.length rounds)
    (String.concat " + " (List.map (fun s -> s.sys) traced))
    spans.Trace.n;
  (* run and trace totals *)
  emit "run_cpu_s" "s" base_cpu ~note:("(untraced) " ^ rounds_note);
  emit "run_wall_s" "s" (best (fun r -> sum (fun s -> s.run_wall) r.base)) ~note:"(untraced)";
  emit "host.txns_per_cpu_s" "1/s" (ratio committed base_cpu) ~note:"(untraced, all segments)";
  emit "trace.overhead" "x" (ratio base_cpu (best (fun r -> cpu r.traced)))
    ~note:("(traced / untraced txns_per_cpu_s) " ^ rounds_note);
  emit "trace.spans" "count" (float spans.Trace.n);
  (* sim: the tap of the traced run that used the least CPU *)
  let probe =
    let r = List.fold_left (fun a r -> if cpu r.traced < cpu a.traced then r else a) first rounds in
    Option.get (List.hd r.traced).probe
  in
  emit "sim.events" "count" (float tp.events) ~note:("(" ^ tp.sys ^ ")");
  emit "sim.events_per_txn" "count" (per_txn tp (float tp.events));
  emit "sim.cpu_ns_per_event" "ns" probe.Trace.ns_per_event
    ~note:(Printf.sprintf "(traced, %d samples every %d events)" probe.samples probe_every);
  emit "sim.cpu_ns_per_event.first_decile" "ns" probe.ns_first_decile;
  emit "sim.cpu_ns_per_event.last_decile" "ns" probe.ns_last_decile;
  emit "sim.cost_growth" "x" (ratio probe.ns_last_decile probe.ns_first_decile)
    ~note:"(last / first decile)";
  emit "sim.minor_words_per_event" "words" probe.minor_words_per_event ~note:"(traced)";
  let drivers =
    let l = (List.hd specs).load in
    nodes
    * match l.Driver.open_loop with None -> l.clients_per_node | Some o -> o.Driver.workers_per_node
  in
  let occupancy = int_of_float probe.mean_inflight + drivers in
  emit "sim.engine_events_per_cpu_s" "1/s" (Replay.engine ~chains:occupancy ~events:2_000_000)
    ~note:(Printf.sprintf "(engine-only replay, %d chains)" occupancy);
  (* net *)
  emit "net.msgs_per_txn" "count" (per_txn tp (float tp.net.Sss_net.Network.sent));
  emit "net.bytes_per_txn" "B" (per_txn tp (float tp.net.bytes));
  emit "net.dropped" "count" (float (isum (fun s -> s.net.dropped) traced));
  emit "net.ingress_depth_p99" "count" (float probe.depth_p99);
  emit "net.mean_inflight" "count" probe.mean_inflight;
  (* kv: virtual spans of the primary's operations *)
  let span_us name p =
    let d = Trace.virtual_durations spans (tp.sys ^ "." ^ name) in
    Array.sort Float.compare d;
    1e6 *. nearest_rank d p
  in
  emit "kv.begin_v_us_p99" "us" (span_us "begin_txn" 0.99);
  emit "kv.read_v_us_p50" "us" (span_us "read" 0.5);
  emit "kv.read_v_us_p99" "us" (span_us "read" 0.99);
  emit "kv.commit_v_us_p50" "us" (span_us "commit" 0.5);
  emit "kv.commit_v_us_p99" "us" (span_us "commit" 0.99);
  List.iter
    (fun op ->
      let cpu, n = Trace.cpu_total spans (tp.sys ^ "." ^ op) in
      emit (Printf.sprintf "kv.%s_cpu_ns" op) "ns" (1e9 *. ratio cpu (float n))
        ~note:(Printf.sprintf "(%d calls that did not suspend)" n))
    [ "begin_txn"; "write" ];
  emit "kv.nlog_entries" "count" (layer_value tp "kv.nlog_entries");
  emit "kv.reads_served_per_txn" "count" (per_txn tp (layer_value tp "kv.reads_served"));
  emit "kv.wait_covered_timeouts" "count" (layer_value tp "kv.wait_covered_timeouts");
  let sss_tps = ratio (float bp.committed) primary_cpu in
  emit "kv.txns_per_cpu_s" "1/s" sss_tps ~note:"(untraced)";
  let differential name what variant =
    match variant first with
    | None -> emit name "x" 0.0 ~note:"(not run on this workload)"
    | Some _ ->
        emit name "x"
          (ratio primary_cpu (best (fun r -> (Option.get (variant r)).run_cpu)))
          ~note:(Printf.sprintf "(primary run CPU, %s) %s" what rounds_note)
  in
  differential "kv.legacy_gc_cpu_ratio" "gc off / on" (fun r -> r.gc_on);
  (* baselines *)
  List.iter
    (fun sys ->
      let seg = List.find_opt (fun s -> s.sys = sys) base
      and tseg = List.find_opt (fun s -> s.sys = sys) traced in
      let v f = match (seg, tseg) with Some s, Some t -> f s t | _ -> 0.0 in
      let tps = v (fun s _ -> ratio (float s.committed) (best (fun r -> seg_cpu sys r.base))) in
      emit (sys ^ ".txns_per_cpu_s") "1/s" tps
        ~note:
          (if tps = 0.0 then "(not run on this workload)"
           else Printf.sprintf "(%.2fx SSS's)" (ratio tps sss_tps));
      emit (sys ^ ".setup_s") "s" (v (fun s _ -> s.setup_cpu));
      emit (sys ^ ".events_per_txn") "count" (v (fun _ t -> per_txn t (float t.events)));
      emit (sys ^ ".msgs_per_txn") "count" (v (fun _ t -> per_txn t (float t.net.sent)));
      emit (sys ^ ".v_txns_per_s") "1/s" (v (fun _ t -> t.result.Driver.throughput));
      emit (sys ^ ".v_p99_ms") "ms" (v (fun _ t -> 1e3 *. Stats.percentile t.result.Driver.latency 0.99));
      emit (sys ^ ".store_words") "words" (v (fun _ t -> layer_value t "store_words")))
    [ "walter"; "twopc"; "rococo" ];
  (* mvstore *)
  List.iter
    (fun k ->
      let is_words = String.length k > 13 && String.sub k 0 13 = "mvstore.words" in
      emit k (if is_words then "words" else "count") (layer_value tp k))
    [
      "mvstore.versions"; "mvstore.words_per_version"; "mvstore.words.slots"; "mvstore.words.clocks";
      "mvstore.words.index"; "mvstore.words.values"; "gc.refreshes"; "gc.versions_dropped";
      "gc.entries_dropped";
    ];
  let cfg = (List.hd specs).config in
  let keys_per_node = cfg.total_keys * cfg.replication_degree / cfg.nodes in
  let select_ns, install_ns = Replay.mvstore ~nodes ~keys:keys_per_node in
  let replay_note = Printf.sprintf "(replay: %d-wide clocks, %d keys)" nodes keys_per_node in
  emit "mvstore.select_ns" "ns" select_ns ~note:replay_note;
  emit "mvstore.install_ns" "ns" install_ns ~note:replay_note;
  emit "vclock.max_ns" "ns" (Replay.vclock_max ~nodes) ~note:replay_note;
  let entries = int_of_float (layer_value bp "kv.nlog_entries") / nodes in
  emit "nlog.visible_max_ns" "ns" (Replay.nlog_visible_max ~nodes ~entries)
    ~note:(Printf.sprintf "(replay: %d entries per node)" entries);
  (* storage *)
  let flushes = layer_value tp "wal.flushes" in
  emit "wal.flushes" "count" flushes;
  emit "wal.records_per_flush" "count" (ratio (layer_value tp "wal.flushed_records") flushes);
  emit "wal.bytes_per_txn" "B" (per_txn tp (layer_value tp "wal.flushed_bytes"));
  emit "wal.checkpoints" "count" (layer_value tp "wal.checkpoints");
  (* workload *)
  let r = tp.result in
  emit "driver.offered" "count" (float r.Driver.offered);
  emit "driver.accepted" "count" (float r.Driver.accepted);
  emit "driver.rejected" "count" (float r.Driver.rejected);
  emit "driver.queue_wait_v_p99_ms" "ms" (1e3 *. Stats.percentile r.Driver.queue_wait 0.99)
    ~note:(Printf.sprintf "(n=%d)" (Stats.count r.Driver.queue_wait));
  emit "driver.service_v_p99_ms" "ms" (1e3 *. Stats.percentile r.Driver.service 0.99)
    ~note:(Printf.sprintf "(n=%d)" (Stats.count r.Driver.service));
  (* obs *)
  emit "obs.emitted" "count" (layer_value tp "obs.emitted");
  emit "obs.overwritten" "count" (layer_value tp "obs.overwritten");
  differential "obs.cpu_ratio" "observe on / off" (fun r -> r.obs_off);
  (* consistency *)
  emit "check.history_events" "count" (float tp.history_events);
  List.iter
    (fun p ->
      let c = List.find_opt (fun (q, _, _) -> q = p) tp.checks in
      emit ("check." ^ p ^ "_s") "s" (match c with Some (_, t, _) -> t | None -> 0.0);
      emit ("check." ^ p ^ "_ok") "bool"
        (match c with Some (_, _, Ok ()) -> 1.0 | _ -> 0.0)
        ~note:(if c = None then "(not run on this workload)" else ""))
    [ "external_consistency"; "serializability"; "no_lost_updates"; "no_torn_commits";
      "read_only_abort_free" ];
  (* runtime, untraced *)
  emit "rt.alloc_words_per_txn" "words" (ratio (sum (fun s -> s.minor_words) base) committed);
  emit "rt.promoted_words_per_txn" "words" (ratio (sum (fun s -> s.promoted_words) base) committed);
  emit "rt.minor_gcs" "count" (float (isum (fun s -> s.minor_gcs) base));
  emit "rt.major_gcs" "count" (float (isum (fun s -> s.major_gcs) base));
  print_metrics "layer";
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed) in
  Trace.write_jsonl spans path;
  Printf.printf "spans written to %s\n" path;
  attempted base

(* ---------- main ---------- *)

let () =
  let workloads =
    match arg "workload" "" Fun.id with
    | "all" -> Workloads.all
    | name -> ( match Workloads.find name with Some w -> [ w ] | None -> usage ())
  in
  let seed = arg "seed" 42 int_of_string in
  let seconds = arg "seconds" 30.0 float_of_string in
  let trace = arg "trace" 0 int_of_string in
  let attempted =
    List.mapi
      (fun i (w : Workloads.t) ->
        if List.length workloads > 1 then prefix := w.name ^ ".";
        try
          if trace = 0 then end_to_end w ~seed ~seconds ~fresh_process:(i = 0)
          else per_layer w ~seed ~seconds
        with Exit -> 1)
      workloads
    |> List.fold_left ( + ) 0
  in
  let correct = !failures = [] in
  List.iter (fun m -> Printf.printf "FAIL %s\n" m) (List.rev !failures);
  let body =
    String.concat ","
      (List.rev_map
         (fun m -> Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" m.name m.value m.unit_)
         !reported)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    (max 1 attempted)
    (if correct then 0 else max 1 attempted)
    body;
  exit (if correct then 0 else 1)
