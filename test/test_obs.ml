(* Tests for the observability layer (lib/obs): histogram and trace-ring
   unit/property tests, trace-driven assertions over a real SSS run, and
   the observer-effect contract — observe=true must not change a
   trajectory, observe=false must not even allocate a sink. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_consistency
module Obs = Sss_obs.Obs
module Hist = Sss_obs.Hist

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------- histograms: bucket boundaries ---------- *)

let test_hist_buckets () =
  let h = Hist.create ~lo:1.0 ~ratio:2.0 ~buckets:4 () in
  (* buckets: [0,1) [1,2) [2,4) [4,inf) *)
  Alcotest.(check int) "below lo" 0 (Hist.bucket_of h 0.5);
  Alcotest.(check int) "at lo" 1 (Hist.bucket_of h 1.0);
  Alcotest.(check int) "inside bucket 1" 1 (Hist.bucket_of h 1.999);
  Alcotest.(check int) "at edge 2" 2 (Hist.bucket_of h 2.0);
  Alcotest.(check int) "last bucket lower edge" 3 (Hist.bucket_of h 4.0);
  Alcotest.(check int) "last bucket absorbs" 3 (Hist.bucket_of h 1e12);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "bucket 0 bounds" (0.0, 1.0)
    (Hist.bucket_bounds h 0);
  let lo3, hi3 = Hist.bucket_bounds h 3 in
  Alcotest.(check (float 0.0)) "last lower" 4.0 lo3;
  Alcotest.(check bool) "last upper is inf" true (hi3 = infinity)

let test_hist_stats () =
  let h = Hist.create ~lo:1.0 ~ratio:2.0 ~buckets:4 () in
  List.iter (Hist.observe h) [ 0.5; 1.5; 3.0; 6.0 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 11.0 (Hist.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.75 (Hist.mean h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 6.0 (Hist.max_value h);
  Alcotest.(check (list int)) "per-bucket counts" [ 1; 1; 1; 1 ]
    (Array.to_list (Hist.counts h));
  (* negative values clamp to 0 instead of being lost *)
  Hist.observe h (-3.0);
  Alcotest.(check int) "negative clamped into bucket 0" 2 (Hist.counts h).(0);
  Alcotest.(check (float 1e-9)) "clamped min" 0.0 (Hist.min_value h)

let test_hist_percentile () =
  let h = Hist.create ~lo:1.0 ~ratio:2.0 ~buckets:4 () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Hist.percentile h 0.5);
  for _ = 1 to 99 do Hist.observe h 1.5 done;
  Hist.observe h 6.0;
  (* p50 rank lands in bucket [1,2): reported as that bucket's upper edge *)
  Alcotest.(check (float 1e-9)) "p50 bucket upper edge" 2.0 (Hist.percentile h 0.5);
  (* p100 lands in the last occupied bucket; its upper edge (inf for the
     overflow bucket) clamps to the observed max *)
  Alcotest.(check (float 1e-9)) "p100 clamps to vmax" 6.0 (Hist.percentile h 1.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Hist.percentile: p outside (0, 1]") (fun () ->
      ignore (Hist.percentile h 1.5))

let test_hist_merge () =
  let mk () = Hist.create ~lo:1.0 ~ratio:2.0 ~buckets:4 () in
  let a = mk () and b = mk () in
  List.iter (Hist.observe a) [ 0.5; 3.0 ];
  List.iter (Hist.observe b) [ 1.5; 9.0 ];
  let m = Hist.merge a b in
  Alcotest.(check int) "merged count" 4 (Hist.count m);
  Alcotest.(check (float 1e-9)) "merged sum" 14.0 (Hist.sum m);
  Alcotest.(check (float 1e-9)) "merged min" 0.5 (Hist.min_value m);
  Alcotest.(check (float 1e-9)) "merged max" 9.0 (Hist.max_value m);
  Alcotest.(check (list int)) "merged buckets" [ 1; 1; 1; 1 ]
    (Array.to_list (Hist.counts m));
  let odd = Hist.create ~lo:1.0 ~ratio:2.0 ~buckets:6 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Hist.merge: shape mismatch") (fun () ->
      ignore (Hist.merge a odd))

(* ---------- histogram properties ---------- *)

let pos_floats = QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_exclusive 1e6))

let prop_count_preserved =
  QCheck.Test.make ~name:"hist: total bucket count = observations" ~count:200
    pos_floats (fun xs ->
      let h = Hist.create () in
      List.iter (Hist.observe h) xs;
      Array.fold_left ( + ) 0 (Hist.counts h) = List.length xs
      && Hist.count h = List.length xs)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"hist: bucket_of monotone in the value" ~count:500
    QCheck.(pair (float_bound_exclusive 1e9) (float_bound_exclusive 1e9))
    (fun (a, b) ->
      let h = Hist.create () in
      let lo = Float.min a b and hi = Float.max a b in
      Hist.bucket_of h lo <= Hist.bucket_of h hi)

let prop_merge_is_concat =
  QCheck.Test.make ~name:"hist: merge = observing the concatenation" ~count:100
    QCheck.(pair pos_floats pos_floats) (fun (xs, ys) ->
      let mk l =
        let h = Hist.create () in
        List.iter (Hist.observe h) l;
        h
      in
      let merged = Hist.merge (mk xs) (mk ys) in
      let both = mk (xs @ ys) in
      Hist.counts merged = Hist.counts both [@poly_ok]
      && Hist.count merged = Hist.count both)

(* ---------- histograms: unboxed state ---------- *)

(* Output pinned digit for digit: where the running sum/min/max are kept
   must not show in the JSON. *)
let test_hist_json_pinned () =
  let mk l =
    let h = Hist.create () in
    List.iter (Hist.observe h) l;
    h
  in
  let a = mk [ 3e-4; 1.5e-3; 0.0; 7e-6; 2.25e-2; 1e-3 ] and b = mk [ 4.5e-5; 9.75e-1 ] in
  let empty = {|{"count":0,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0}|} in
  Alcotest.(check string) "to_json"
    {|{"count":6,"mean":0.00421783333,"min":0,"max":0.0225,"p50":0.0004096,"p95":0.0225,"p99":0.0225}|}
    (Hist.to_json a);
  Alcotest.(check string) "merge"
    {|{"count":8,"mean":0.125044,"min":0,"max":0.975,"p50":0.0004096,"p95":0.975,"p99":0.975}|}
    (Hist.to_json (Hist.merge a b));
  Alcotest.(check string) "empty" empty (Hist.to_json (Hist.create ()));
  Alcotest.(check string) "merge of empties" empty
    (Hist.to_json (Hist.merge (Hist.create ()) (Hist.create ())))

(* The values are boxed before the measurement (a float list), so any word
   counted is one [observe] allocated itself. *)
let test_hist_observe_allocates_nothing () =
  let h = Hist.create () in
  let values = List.init 64 (fun i -> float_of_int i *. 1e-5) in
  let slot = [| 2.5e-3 |] in
  let rec feed = function
    | [] -> ()
    | v :: rest ->
        Hist.observe h v;
        feed rest
  in
  let before = Gc.minor_words () in
  for _ = 1 to 156 do
    feed values;
    for _ = 1 to 64 do
      Hist.observe_slot h slot 0
    done
  done;
  Hist.observe h 1.0;
  Hist.observe_slot h slot 0;
  Hist.observe h 0.5;
  Hist.observe_slot h slot 0;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 19972 observations" 0.0 words;
  Alcotest.(check int) "all counted" 19_972 (Hist.count h)

(* ---------- the trace ring ---------- *)

(* Emit [n] vclock advances, the i-th (from 1) at virtual time i. *)
let emit_advances o sim n =
  for i = 1 to n do
    Sim.run_until sim (float_of_int i);
    Obs.vclock_advance o ~node:0 ~value:i
  done

let test_ring_basic () =
  let sim = Sim.create () in
  let o = Obs.create ~capacity:4 sim in
  emit_advances o sim 3;
  Alcotest.(check int) "emitted" 3 (Obs.emitted o);
  Alcotest.(check int) "nothing dropped" 0 (Obs.dropped o);
  Alcotest.(check (list int)) "seq 0,1,2" [ 0; 1; 2 ]
    (List.map (fun (s : Obs.stamped) -> s.seq) (Obs.events o))

let test_ring_wraparound () =
  let sim = Sim.create () in
  let o = Obs.create ~capacity:4 sim in
  emit_advances o sim 10;
  Alcotest.(check int) "emitted" 10 (Obs.emitted o);
  Alcotest.(check int) "dropped = emitted - capacity" 6 (Obs.dropped o);
  let seqs = List.map (fun (s : Obs.stamped) -> s.seq) (Obs.events o) in
  Alcotest.(check (list int)) "retains the newest, oldest first" [ 6; 7; 8; 9 ] seqs;
  let ats = List.map (fun (s : Obs.stamped) -> s.at) (Obs.events o) in
  Alcotest.(check (list (float 0.0))) "timestamps follow" [ 7.0; 8.0; 9.0; 10.0 ] ats

(* The ring against a list model: random capacities (1 and non-powers of
   two included) and emission counts that cross both the growth and the
   wrap boundaries; every event type round-trips through the slot
   encoding. *)
let random_event o kinds ~now =
  let open QCheck.Gen in
  let small = int_bound 1_000_000 in
  let node = int_bound 200 in
  let txn = map2 (fun node local -> { Ids.node; local }) node small in
  let kind = map (fun i -> (i, List.nth kinds i)) (int_bound (List.length kinds - 1)) in
  let reason =
    oneofl
      Obs.[ Client; Vote; Vote_false; Vote_timeout; Conflict; Ro_rounds ]
  in
  let k name = Obs.message_kind o name in
  oneof
    [
      map3
        (fun (_, kind) (src, dst) bytes ->
          ((fun () -> Obs.send o (k kind) ~src ~dst ~bytes), Obs.Send { kind; src; dst; bytes }))
        kind (pair node node) small;
      map2
        (fun (_, kind) (src, dst) ->
          ((fun () -> Obs.recv o (k kind) ~src ~dst), Obs.Recv { kind; src; dst }))
        kind (pair node node);
      map3
        (fun (_, kind) node depth ->
          ((fun () -> Obs.enqueue o (k kind) ~node ~depth), Obs.Enqueue { kind; node; depth }))
        kind node small;
      map3
        (fun (_, kind) (node, depth) w ->
          let sent = now -. (float_of_int w *. 1e-6) in
          ( (fun () -> Obs.dequeue o (k kind) ~node ~depth ~sent:[| sent |]),
            Obs.Dequeue { kind; node; depth; waited = now -. sent } ))
        kind (pair node small) small;
      map2
        (fun (_, kind) (src, dst) ->
          ((fun () -> Obs.drop o (k kind) ~src ~dst), Obs.Drop { kind; src; dst }))
        kind (pair node node);
      map3
        (fun txn node ro ->
          ((fun () -> Obs.txn_begin o txn ~node ~ro), Obs.Txn_begin { txn; node; ro }))
        txn node bool;
      map3
        (fun txn node ro ->
          ( (fun () -> Obs.txn_commit o txn ~node ~ro ~began:0.0),
            Obs.Txn_commit { txn; node; ro } ))
        txn node bool;
      map3
        (fun txn (node, ro) r ->
          ( (fun () -> Obs.txn_abort o txn ~node ~ro r),
            Obs.Txn_abort { txn; node; ro; reason = Obs.reason_name r } ))
        txn (pair node bool) reason;
      map3
        (fun txn node stamp ->
          ((fun () -> Obs.park o txn ~node ~stamp), Obs.Park { txn; node; stamp }))
        txn node small;
      map3
        (fun txn node stamp ->
          ((fun () -> Obs.unpark o txn ~node ~stamp), Obs.Unpark { txn; node; stamp }))
        txn node small;
      map3
        (fun txn node keys ->
          ((fun () -> Obs.lock_acquire o txn ~node ~keys), Obs.Lock_acquire { txn; node; keys }))
        txn node small;
      map2
        (fun txn node ->
          ((fun () -> Obs.lock_release o txn ~node), Obs.Lock_release { txn; node }))
        txn node;
      map2
        (fun node value ->
          ((fun () -> Obs.vclock_advance o ~node ~value), Obs.Vclock_advance { node; value }))
        node small;
      map3
        (fun src dst attempt ->
          ((fun () -> Obs.retry o ~src ~dst ~attempt), Obs.Retry { src; dst; attempt }))
        node node small;
      map2
        (fun src dst -> ((fun () -> Obs.stall o ~src ~dst), Obs.Stall { src; dst }))
        node node;
    ]

let prop_ring_model =
  QCheck.Test.make ~name:"ring: events/emitted/dropped agree with a list model" ~count:300
    QCheck.(
      triple
        (make ~print:string_of_int Gen.(oneof [ return 1; int_range 2 9; int_range 60 300 ]))
        (make ~print:string_of_int Gen.(int_bound 700))
        int)
    (fun (capacity, n, seed) ->
      let sim = Sim.create () in
      let o = Obs.create ~capacity sim in
      let kinds = [ "prepare"; "vote"; "read_request" ] in
      let rand = Random.State.make [| seed |] in
      let model = ref [] in
      for i = 1 to n do
        let emit, ev = random_event o kinds ~now:(float_of_int i) rand in
        Sim.run_until sim (float_of_int i);
        emit ();
        model := { Obs.at = float_of_int i; seq = i - 1; event = ev } :: !model
      done;
      let retained = Int.min n capacity in
      let expected = List.filteri (fun i _ -> i < retained) !model |> List.rev in
      Obs.emitted o = n
      && Obs.dropped o = n - retained
      && Obs.events o = expected [@poly_ok])

let test_counters_and_gauges () =
  let o = Obs.create (Sim.create ()) in
  Obs.incr o "b";
  Obs.incr o "a";
  Obs.incr o "b";
  Obs.add o "a" 10;
  Alcotest.(check int) "counter a" 11 (Obs.counter o "a");
  Alcotest.(check int) "unknown counter" 0 (Obs.counter o "zzz");
  Alcotest.(check (list (pair string int))) "sorted read-back"
    [ ("a", 11); ("b", 2) ] (Obs.counters o);
  Obs.gauge_set o "depth" 3;
  Obs.gauge_set o "depth" 7;
  Obs.gauge_set o "depth" 2;
  Alcotest.(check (list (pair string (pair int int)))) "gauge current+peak"
    [ ("depth", (2, 7)) ] (Obs.gauges o);
  (* registered but never bumped: invisible to every read-back *)
  ignore (Obs.register_counter o "c.idle");
  ignore (Obs.register_hist o "h.idle");
  ignore (Obs.register_gauge o "g.idle");
  ignore (Obs.message_kind o "idle");
  Alcotest.(check (list (pair string int))) "idle counter hidden"
    [ ("a", 11); ("b", 2) ] (Obs.counters o);
  Alcotest.(check int) "idle hist hidden" 0 (List.length (Obs.hists o));
  Alcotest.(check (option unit)) "idle hist absent" None
    (Option.map ignore (Obs.hist o "h.idle"));
  Alcotest.(check int) "idle gauge hidden" 1 (List.length (Obs.gauges o));
  (* a handle and its name address the same counter *)
  let c = Obs.register_counter o "a" in
  Obs.bump o c;
  Obs.bump_by o c 0;
  Alcotest.(check int) "handle bumps the named counter" 12 (Obs.counter o "a");
  let g = Obs.register_gauge o "neg" in
  Obs.set_level o g (-5);
  Alcotest.(check (list (pair string (pair int int)))) "first level sets the peak"
    [ ("depth", (2, 7)); ("neg", (-5, -5)) ] (Obs.gauges o)

let txn01 = { Ids.node = 0; local = 1 }

let test_json_shapes () =
  let sim = Sim.create () in
  Sim.run_until sim 0.5;
  let o = Obs.create ~capacity:8 sim in
  Obs.incr o "txn.commit.ro";
  Obs.observe o "lat.txn.ro" 0.001;
  Obs.gauge_set o "net.queue.node0" 2;
  Obs.txn_commit o txn01 ~node:0 ~ro:true ~began:0.25;
  let m = Obs.metrics_json o in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "metrics has %s" needle)
        true
        (contains ~needle m))
    [ "\"counters\""; "\"histograms\""; "\"gauges\""; "\"trace\""; "txn.commit.ro" ];
  let lines = String.split_on_char '\n' (String.trim (Obs.trace_jsonl o)) in
  Alcotest.(check int) "one line per retained event" 1 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check string) "txn id rendered at read time"
    {|{"at":0.5,"seq":0,"ev":"txn_commit","txn":"T<0.1>","node":0,"ro":true}|}
    (List.hd lines);
  (* identical registries render identically *)
  let o2 = Obs.create ~capacity:8 sim in
  Obs.incr o2 "txn.commit.ro";
  Obs.observe o2 "lat.txn.ro" 0.001;
  Obs.gauge_set o2 "net.queue.node0" 2;
  Obs.txn_commit o2 txn01 ~node:0 ~ro:true ~began:0.25;
  Alcotest.(check string) "deterministic rendering" m (Obs.metrics_json o2)

(* ---------- trace-driven assertions over a real SSS run ---------- *)

let run_sss ~observe ~seed =
  let sim = Sim.create () in
  let config =
    {
      Config.default with
      nodes = 3;
      replication_degree = 1;
      total_keys = 24;
      seed;
      observe;
    }
  in
  let cl = Kv.create sim config in
  let ops =
    {
      Sss_workload.Driver.begin_txn = (fun ~node ~read_only -> Kv.begin_txn cl ~node ~read_only);
      read = Kv.read;
      write = Kv.write;
      commit = Kv.commit;
    }
  in
  let result =
    Sss_workload.Driver.run sim ~nodes:3 ~total_keys:24
      ~local_keys:(fun n -> Replication.keys_at cl.State.repl n)
      ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:0.5)
      ~load:
        {
          Sss_workload.Driver.default_load with
          clients_per_node = 4;
          warmup = 0.005;
          duration = 0.04;
          seed;
        }
      ~ops
  in
  (sim, cl, result)

let obs_exn cl =
  match Kv.obs cl with
  | Some o -> o
  | None -> Alcotest.fail "observe=true but no sink attached"

let test_traced_run_events () =
  let _, cl, result = run_sss ~observe:true ~seed:7 in
  let o = obs_exn cl in
  Alcotest.(check bool) "made progress" true (result.Sss_workload.Driver.committed > 50);
  Alcotest.(check bool) "ran read-only transactions" true (Obs.counter o "txn.begin.ro" > 0);
  let events = Obs.events o in
  Alcotest.(check bool) "trace retained events" true (events <> []);
  (* the paper's headline property, visible in the trace: no read-only
     transaction ever aborts *)
  List.iter
    (fun (s : Obs.stamped) ->
      match s.event with
      | Obs.Txn_abort { ro = true; txn; _ } ->
          Alcotest.fail (Printf.sprintf "read-only transaction %s aborted" (Ids.txn_to_string txn))
      | _ -> ())
    events;
  (* vclock advances are strictly monotone per node *)
  let last = Array.make 3 min_int in
  List.iter
    (fun (s : Obs.stamped) ->
      match s.event with
      | Obs.Vclock_advance { node; value } ->
          if value <= last.(node) then
            Alcotest.fail
              (Printf.sprintf "vclock on node %d went %d -> %d" node last.(node) value);
          last.(node) <- value
      | _ -> ())
    events;
  Alcotest.(check bool) "saw vclock advances" true (Array.exists (fun v -> v > 0) last);
  (* sequence numbers are the emission order *)
  ignore
    (List.fold_left
       (fun prev (s : Obs.stamped) ->
         Alcotest.(check bool) "seq strictly increasing" true (s.seq > prev);
         s.seq)
       (-1) events);
  (* every park is matched by an unpark before quiescence *)
  Alcotest.(check int) "park = unpark at quiescence" (Obs.counter o "sq.park")
    (Obs.counter o "sq.unpark");
  Alcotest.(check bool) "parking actually happened" true (Obs.counter o "sq.park" > 0);
  (* the observed run is still checker-clean *)
  let h = Kv.history cl in
  (match Checker.external_consistency h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("external consistency: " ^ e));
  (match Checker.read_only_abort_free h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ro abort-free: " ^ e));
  match Kv.quiescent cl with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("quiescent: " ^ e)

let test_traced_run_metrics () =
  let _, cl, _ = run_sss ~observe:true ~seed:7 in
  let o = obs_exn cl in
  (* non-zero latency histograms for the protocol's message kinds *)
  List.iter
    (fun kind ->
      let name = "lat.msg." ^ kind in
      match Obs.hist o name with
      | Some h ->
          Alcotest.(check bool) (name ^ " non-empty") true (Hist.count h > 0);
          Alcotest.(check bool) (name ^ " positive mean") true (Hist.mean h > 0.0)
      | None -> Alcotest.fail (name ^ " missing"))
    [ "read_request"; "read_return"; "prepare"; "vote"; "decide"; "ack" ];
  (* per-class transaction latency *)
  List.iter
    (fun name ->
      match Obs.hist o name with
      | Some h -> Alcotest.(check bool) (name ^ " non-empty") true (Hist.count h > 0)
      | None -> Alcotest.fail (name ^ " missing"))
    [ "lat.txn.ro"; "lat.txn.update" ];
  (* sent/recv counters pair up per kind on a lossless network *)
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (Printf.sprintf "sent=recv for %s" kind)
        (Obs.counter o ("msg.sent." ^ kind))
        (Obs.counter o ("msg.recv." ^ kind)))
    [ "prepare"; "vote"; "decide"; "read_request"; "read_return" ];
  (* queue-depth gauges were sampled for every node *)
  let gauges = Obs.gauges o in
  List.iter
    (fun n ->
      let name = Printf.sprintf "net.queue.node%d" n in
      Alcotest.(check bool) (name ^ " present") true (List.mem_assoc name gauges))
    [ 0; 1; 2 ];
  (* the metrics JSON carries it all *)
  match Kv.metrics_json cl with
  | None -> Alcotest.fail "metrics_json absent"
  | Some json ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("metrics has " ^ needle) true
            (contains ~needle json))
        [ "lat.msg.prepare"; "lat.txn.ro"; "txn.commit.ro"; "vclock.advance"; "\"trace\"" ]

(* ---------- the observer-effect contract ---------- *)

let test_observer_effect_zero () =
  let sim_off, cl_off, r_off = run_sss ~observe:false ~seed:13 in
  let sim_on, cl_on, r_on = run_sss ~observe:true ~seed:13 in
  Alcotest.(check (option unit)) "observe=false allocates no sink" None
    (Option.map ignore (Kv.obs cl_off));
  Alcotest.(check int) "same DES event count" (Sim.events_processed sim_off)
    (Sim.events_processed sim_on);
  Alcotest.(check (float 0.0)) "same virtual end time" (Sim.now sim_off) (Sim.now sim_on);
  Alcotest.(check int) "same committed" r_off.Sss_workload.Driver.committed
    r_on.Sss_workload.Driver.committed;
  Alcotest.(check int) "same aborted" r_off.Sss_workload.Driver.aborted
    r_on.Sss_workload.Driver.aborted;
  let verdict cl =
    let h = Kv.history cl in
    ( Result.is_ok (Checker.external_consistency h),
      Result.is_ok (Checker.serializability h),
      Result.is_ok (Checker.no_lost_updates h),
      Result.is_ok (Checker.read_only_abort_free h) )
  in
  Alcotest.(check (pair (pair bool bool) (pair bool bool)))
    "same checker verdicts"
    (let a, b, c, d = verdict cl_off in
     ((a, b), (c, d)))
    (let a, b, c, d = verdict cl_on in
     ((a, b), (c, d)))

let test_observed_runs_deterministic () =
  let metrics seed =
    let _, cl, _ = run_sss ~observe:true ~seed in
    match Kv.metrics_json cl with Some m -> m | None -> Alcotest.fail "no metrics"
  in
  Alcotest.(check string) "same seed => identical metrics JSON" (metrics 21) (metrics 21);
  Alcotest.(check bool) "different seed => different metrics" true
    (metrics 21 <> metrics 22)

(* ---------- every system, observed under faults ---------- *)

module Chaos = Sss_chaos.Chaos
module Driver = Sss_workload.Driver

module type SYSTEM = sig
  type cluster
  type handle
  type msg

  val create : Sim.t -> Config.t -> cluster
  val network : cluster -> msg Sss_net.Network.t
  val message_kind : msg -> string
  val crash_node : cluster -> Ids.node -> unit
  val restart_node : cluster -> Ids.node -> unit
  val begin_txn : cluster -> node:Ids.node -> read_only:bool -> handle
  val read : handle -> Ids.key -> string
  val write : handle -> Ids.key -> string -> unit
  val commit : handle -> bool
  val obs : cluster -> Obs.t option
  val quiescent : cluster -> (unit, string) result
end

module Sss_system = struct
  include Kv

  type msg = Message.payload

  let message_kind = Message.kind_name
end

let systems : (string * int * (module SYSTEM)) list =
  [
    ("sss", 2, (module Sss_system));
    ("2pc", 2, (module Twopc_kv.Twopc));
    ("walter", 2, (module Walter_kv.Walter));
    ("rococo", 1, (module Rococo_kv.Rococo));
  ]

(* A durable, fault-tolerant 4-node run under [plan], observed unless
   [observe] is false; returns the sink and the quiescence verdict. *)
let run_system_on ?(observe = true) sim (module S : SYSTEM) ~degree ~plan ~seed =
  let config =
    {
      Config.default with
      nodes = 4;
      replication_degree = degree;
      total_keys = 24;
      seed;
      observe;
      fault_tolerance = true;
      durability = true;
    }
  in
  let cl = S.create sim config in
  ignore
    (Chaos.install sim (S.network cl) ~kind_of:S.message_kind ~on_crash:(S.crash_node cl)
       ~on_restart:(S.restart_node cl) plan);
  ignore
    (Driver.run sim ~nodes:4 ~total_keys:24
       ~local_keys:(fun _ -> [||])
       ~profile:(Driver.paper_profile ~read_only_ratio:0.5)
       ~load:
         { Driver.default_load with clients_per_node = 2; warmup = 0.005; duration = 0.03; seed }
       ~ops:{ Driver.begin_txn = S.begin_txn cl; read = S.read; write = S.write; commit = S.commit });
  (S.obs cl, S.quiescent cl)

let run_system sys ~degree ~plan ~seed =
  match run_system_on (Sim.create ()) sys ~degree ~plan ~seed with
  | Some o, quiet -> (o, quiet)
  | None, _ -> Alcotest.fail "observe=true but no sink attached"

let lossy_plan ~seed =
  {
    Chaos.seed;
    rules =
      [
        {
          Chaos.target = { Chaos.src = None; dst = None; kinds = [] };
          drop = 0.03;
          dup = 0.0;
          delay = 0.0;
          from_ = 0.0;
          until = infinity;
        };
      ];
    events = [];
  }

let crash_plan ~seed =
  {
    Chaos.seed;
    rules = [];
    events = [ Chaos.Crash { at = 0.015; restart_at = Some 0.019; node = 2 } ];
  }

(* Every message sent is either received or counted lost, whichever way it
   was lost: on the wire (injected loss, a severed link) or at a destination
   that crashed while it was in flight. *)
let test_sent_is_recv_plus_lost () =
  List.iter
    (fun (name, degree, sys) ->
      for seed = 1 to 3 do
        let o, quiet = run_system sys ~degree ~plan:(crash_plan ~seed) ~seed in
        (match quiet with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s seed %d: not quiescent: %s" name seed e);
        let prefix = "msg.sent." in
        let kinds =
          List.filter_map
            (fun (k, _) ->
              if String.starts_with ~prefix k then
                Some (String.sub k (String.length prefix) (String.length k - String.length prefix))
              else None)
            (Obs.counters o)
        in
        if kinds = [] then Alcotest.failf "%s seed %d: no message was counted" name seed;
        List.iter
          (fun kind ->
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: msg.sent.%s = recv + lost" name seed kind)
              (Obs.counter o ("msg.sent." ^ kind))
              (Obs.counter o ("msg.recv." ^ kind) + Obs.counter o ("msg.lost." ^ kind)))
          kinds
      done)
    systems

(* What observing costs in allocation: the same seeded durable SSS run with
   the observer on and off (an identical trajectory), the difference in
   minor-heap words per engine event.  Boxed trace records, txn-id strings
   or counter names built per bump would cost tens of words an event. *)
let test_observer_allocation () =
  let minor_words observe =
    let sim = Sim.create () in
    let before = Gc.minor_words () in
    ignore
      (run_system_on ~observe sim
         (module Sss_system)
         ~degree:2 ~plan:Chaos.empty ~seed:11);
    (Gc.minor_words () -. before, Sim.events_processed sim)
  in
  let off, events_off = minor_words false in
  let on, events_on = minor_words true in
  Alcotest.(check int) "same trajectory" events_off events_on;
  let per_event = (on -. off) /. float_of_int events_on in
  if per_event > 5.0 then
    Alcotest.failf "observer costs %.2f minor words per engine event (%d events), above 5"
      per_event events_on

(* The observer's output is pinned byte for byte, for one run of each
   system: how events are stored and metrics keyed must not show in it. *)
let pinned_digests =
  [
    ("sss seed 7", "f1babcd62857c8a20b87c9c6dcf95215", "0ab3305a81e9171615c4276f9ba4515c");
    ("sss lossy", "61135af1422c81b891fc0117562f31af", "cb40f9d04c6d084d5f13d293d27affed");
    ("2pc lossy", "639072700ca0421f5982e0da30dc9fae", "1082e5279f47008605518383f1b87db6");
    ("walter lossy", "053811160daef05e87372a115edfee61", "31436781a84ce5dcd736fe7a2295fcd0");
    ("rococo lossy", "1ab3628b9ab437db4b6dd96e6e59b5f0", "b77da2b5c349b735ad2a7547942ce16d");
  ]

let test_output_pinned () =
  let runs =
    ("sss seed 7", obs_exn (let _, cl, _ = run_sss ~observe:true ~seed:7 in cl))
    :: List.map
         (fun (name, degree, sys) ->
           (name ^ " lossy", fst (run_system sys ~degree ~plan:(lossy_plan ~seed:5) ~seed:5)))
         systems
  in
  let got =
    List.map
      (fun (name, o) ->
        ( name,
          Digest.to_hex (Digest.string (Obs.trace_jsonl o)),
          Digest.to_hex (Digest.string (Obs.metrics_json o)) ))
      runs
  in
  List.iter2
    (fun (name, want_trace, want_metrics) (_, trace, metrics) ->
      Alcotest.(check string) (name ^ ": trace_jsonl digest") want_trace trace;
      Alcotest.(check string) (name ^ ": metrics_json digest") want_metrics metrics)
    pinned_digests got

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "count/sum/mean/min/max" `Quick test_hist_stats;
          Alcotest.test_case "percentiles" `Quick test_hist_percentile;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "json output pinned" `Quick test_hist_json_pinned;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_hist_observe_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_count_preserved;
          QCheck_alcotest.to_alcotest prop_bucket_monotone;
          QCheck_alcotest.to_alcotest prop_merge_is_concat;
        ] );
      ( "ring",
        [
          Alcotest.test_case "below capacity" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          QCheck_alcotest.to_alcotest prop_ring_model;
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "json shapes" `Quick test_json_shapes;
        ] );
      ( "traced-run",
        [
          Alcotest.test_case "event stream invariants" `Quick test_traced_run_events;
          Alcotest.test_case "metrics registry" `Quick test_traced_run_metrics;
        ] );
      ( "observer-effect",
        [
          Alcotest.test_case "observe on/off: identical trajectory" `Quick
            test_observer_effect_zero;
          Alcotest.test_case "observed runs are deterministic" `Quick
            test_observed_runs_deterministic;
          Alcotest.test_case "trace and metrics output pinned" `Quick test_output_pinned;
          Alcotest.test_case "observing costs <= 5 words per event" `Quick
            test_observer_allocation;
        ] );
      ( "balance",
        [
          Alcotest.test_case "sent = recv + lost after a crash" `Quick
            test_sent_is_recv_plus_lost;
        ] );
    ]
