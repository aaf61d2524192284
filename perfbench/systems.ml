(* The four stores behind one signature, and the runner that builds a
   cluster through its public [create], drives it with [Driver.run], and
   times both from outside.  The runner is the only place that calls into
   the protocol layers; the traced variant wraps the driver's [ops] record
   to record one span per transaction and per operation. *)

open Sss_sim
open Sss_data
module Config = Sss_kv.Config
module Driver = Sss_workload.Driver
module History = Sss_consistency.History
module Checker = Sss_consistency.Checker
module Network = Sss_net.Network

module type SYSTEM = sig
  type cluster
  type handle
  type msg

  val name : string
  val create : Sim.t -> Config.t -> cluster
  val begin_txn : cluster -> node:Ids.node -> read_only:bool -> handle
  val read : handle -> Ids.key -> string
  val write : handle -> Ids.key -> string -> unit
  val commit : handle -> bool
  val txn_id : handle -> Ids.txn
  val history : cluster -> History.t
  val quiescent : cluster -> (unit, string) result
  val network : cluster -> msg Network.t
  val local_keys : cluster -> Ids.node -> Ids.key array

  val layer_stats : cluster -> (string * float) list
  (** End-of-run counters of the store's own layers. *)

  val obs : cluster -> Sss_obs.Obs.t option

  val obs_probe : Sim.t -> cluster -> (unit -> unit) option
  (** The per-event work the store installs with [Sim.set_probe] itself.
      [Sim] holds one probe, so the traced run's tap replaces it and must
      run this too, or the traced run would do less than the untraced one. *)
end

let f = float_of_int

module Sss : SYSTEM = struct
  include Sss_kv.Kv

  type msg = Sss_kv.Message.payload

  let name = "sss"
  let local_keys (cl : cluster) n = Replication.keys_at cl.Sss_kv.State.repl n

  (* What [State.create] installs when [observe] is on: every 1024th event,
     each node's ingress depth, version count and log length as gauges. *)
  let obs_probe sim (cl : cluster) =
    Option.map
      (fun o () ->
        if Sim.events_processed sim land 1023 = 0 then
          Array.iteri
            (fun i (node : Sss_kv.State.node) ->
              Sss_obs.Obs.gauge_set o
                ("net.queue.node" ^ string_of_int i)
                (Network.queue_depth cl.Sss_kv.State.net i);
              Sss_obs.Obs.gauge_set o
                ("store.versions.node" ^ string_of_int i)
                (Mvstore.version_count node.store);
              Sss_obs.Obs.gauge_set o
                ("nlog.entries.node" ^ string_of_int i)
                (Nlog.size node.nlog))
            cl.Sss_kv.State.nodes)
      (obs cl)

  let layer_stats cl =
    let st = stats cl in
    let m = mem_words cl in
    let refreshes, vdropped, edropped = gc_stats cl in
    let w = wal_stats cl in
    let emitted, overwritten =
      match obs cl with
      | None -> (0, 0)
      | Some o -> (Sss_obs.Obs.emitted o, Sss_obs.Obs.dropped o)
    in
    [
      ("kv.nlog_entries", f (nlog_entries cl));
      ("kv.reads_served", f st.Sss_kv.State.reads_served);
      ("kv.wait_covered_timeouts", f st.Sss_kv.State.wait_covered_timeouts);
      ("mvstore.versions", f m.Mvstore.versions);
      ("mvstore.words_per_version", Mvstore.words_per_version m);
      ("mvstore.words.slots", f m.Mvstore.slot_words);
      ("mvstore.words.clocks", f m.Mvstore.clock_words);
      ("mvstore.words.index", f m.Mvstore.index_words);
      ("mvstore.words.values", f m.Mvstore.value_words);
      ("store_words", f (Mvstore.mem_total m));
      ("gc.refreshes", f refreshes);
      ("gc.versions_dropped", f vdropped);
      ("gc.entries_dropped", f edropped);
      ("wal.flushes", f w.Sss_storage.Storage.flushes);
      ("wal.flushed_records", f w.Sss_storage.Storage.flushed_records);
      ("wal.flushed_bytes", f w.Sss_storage.Storage.flushed_bytes);
      ("wal.checkpoints", f w.Sss_storage.Storage.checkpoints);
      ("obs.emitted", f emitted);
      ("obs.overwritten", f overwritten);
    ]
end

module Walter : SYSTEM = struct
  include Walter_kv.Walter

  let name = "walter"
  let local_keys cl n = Replication.keys_at (repl cl) n
  let layer_stats cl = [ ("store_words", f (store_words cl)) ]
  let obs _ = None
  let obs_probe _ _ = None
end

module Twopc : SYSTEM = struct
  include Twopc_kv.Twopc

  let name = "twopc"
  let layer_stats cl = [ ("store_words", f (store_words cl)) ]
  let obs _ = None
  let obs_probe _ _ = None
end

module Rococo : SYSTEM = struct
  include Rococo_kv.Rococo

  let name = "rococo"
  let local_keys cl n = Replication.keys_at (repl cl) n
  let layer_stats cl = [ ("store_words", f (store_words cl)) ]
  let obs _ = None
  let obs_probe _ _ = None
end

(* ---------- one segment: one system, built and driven once ---------- *)

type spec = {
  system : (module SYSTEM);
  config : Config.t;
  profile : Driver.profile;
  load : Driver.load;
  checks : string list;  (** checker properties run on the history *)
}

type tracing = { spans : Trace.spans; probe_every : int }

type segment = {
  sys : string;
  setup_cpu : float;
  run_cpu : float;
  run_wall : float;
  events : int;
  vsecs : float;
  begun : int;  (** transactions begun over the whole run (warm-up included) *)
  committed : int;
  aborted : int;
  result : Driver.result;  (** measured-window statistics *)
  net : Network.stats;
  quiescent : (unit, string) result;
  history_events : int;
  checks : (string * float * (unit, string) result) list;  (** property, CPU s, verdict *)
  layer : (string * float) list;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  probe : Trace.probe_summary option;
  obs_metrics : string;  (** the observer's registry at the end, "" without one *)
}

let property = function
  | "external_consistency" -> Checker.external_consistency
  | "serializability" -> Checker.serializability
  | "no_lost_updates" -> Checker.no_lost_updates
  | "no_torn_commits" -> Checker.no_torn_commits
  | "read_only_abort_free" -> Checker.read_only_abort_free
  | p -> invalid_arg ("unknown checker property " ^ p)

type counts = { mutable n_begun : int; mutable n_committed : int; mutable n_aborted : int }

(* Commit verdicts counted over the whole run; the driver itself counts
   only its measured window. *)
let counting (type h) c (begin_txn : node:Ids.node -> read_only:bool -> h) read write commit
    : h Driver.ops =
  {
    Driver.begin_txn =
      (fun ~node ~read_only ->
        c.n_begun <- c.n_begun + 1;
        begin_txn ~node ~read_only);
    read;
    write;
    commit =
      (fun h ->
        let ok = commit h in
        if ok then c.n_committed <- c.n_committed + 1 else c.n_aborted <- c.n_aborted + 1;
        ok);
  }

type 'h traced = { h : 'h; span : int }

(* The traced [ops]: a span per transaction (begin to commit verdict) and
   one per call.  A call whose fiber suspended — detected by the engine's
   event count moving underneath it — keeps only its virtual duration. *)
let traced_ops (type h) sim (s : Trace.spans) ~sys ~parent ~(txn_id : h -> Ids.txn)
    (ops : h Driver.ops) : h traced Driver.ops =
  let id op = Trace.name_id s (sys ^ "." ^ op) in
  let n_txn = id "txn" and n_begin = id "begin_txn" and n_read = id "read" in
  let n_write = id "write" and n_commit = id "commit" in
  let timed name ~txn ~parent call =
    let v0 = Sim.now sim and e0 = Sim.events_processed sim in
    let i = Trace.start s ~name ~txn ~parent ~v0 ~c0:(Trace.cpu ()) in
    let r = call () in
    Trace.finish s i ~v1:(Sim.now sim) ~c1:(Trace.cpu ())
      ~suspended:(Sim.events_processed sim <> e0);
    r
  in
  {
    Driver.begin_txn =
      (fun ~node ~read_only ->
        let span =
          Trace.start s ~name:n_txn ~txn:(-1) ~parent ~v0:(Sim.now sim) ~c0:(Trace.cpu ())
        in
        let h = timed n_begin ~txn:(-1) ~parent:span (fun () -> ops.begin_txn ~node ~read_only) in
        let txn = Ids.pack (txn_id h) in
        Trace.set_txn s span txn;
        Trace.set_txn s (span + 1) txn;
        { h; span });
    read = (fun t k -> timed n_read ~txn:s.Trace.txn.(t.span) ~parent:t.span (fun () -> ops.read t.h k));
    write =
      (fun t k v -> timed n_write ~txn:s.Trace.txn.(t.span) ~parent:t.span (fun () -> ops.write t.h k v));
    commit =
      (fun t ->
        let ok = timed n_commit ~txn:s.Trace.txn.(t.span) ~parent:t.span (fun () -> ops.commit t.h) in
        Trace.finish s t.span ~v1:(Sim.now sim) ~c1:nan ~suspended:true;
        ok);
  }

let run_segment ?tracing spec =
  let module X = (val spec.system : SYSTEM) in
  let sim = Sim.create () in
  Gc.compact ();
  let spans = Option.map (fun t -> t.spans) tracing in
  let root =
    match spans with
    | None -> -1
    | Some s ->
        Trace.start s ~name:(Trace.name_id s ("segment." ^ X.name)) ~txn:(-1) ~parent:(-1)
          ~v0:0.0 ~c0:(Trace.cpu ())
  in
  let host name f =
    match spans with
    | None -> f (-1)
    | Some s -> Trace.around s ~name ~parent:root ~v:(Sim.now sim) f
  in
  let c0 = Trace.cpu () in
  let cl = host "create" (fun _ -> X.create sim spec.config) in
  let setup_cpu = Trace.cpu () -. c0 in
  let counts = { n_begun = 0; n_committed = 0; n_aborted = 0 } in
  let ops = counting counts (X.begin_txn cl) X.read X.write X.commit in
  let net = X.network cl in
  let nodes = spec.config.Config.nodes in
  let probe =
    match tracing with
    | None -> None
    | Some t ->
        let p = Trace.create_probe ~every:t.probe_every in
        Trace.install ?chain:(X.obs_probe sim cl) p sim ~nodes ~depth:(Network.queue_depth net)
          ~inflight:(fun () ->
            let st = Network.stats net in
            st.Network.sent - st.Network.delivered - st.Network.dropped);
        Some p
  in
  let drive (type h) (ops : h Driver.ops) =
    Driver.run sim ~nodes ~total_keys:spec.config.Config.total_keys ~local_keys:(X.local_keys cl)
      ~profile:spec.profile ~load:spec.load ~ops
  in
  let g0 = Gc.quick_stat () in
  let w0 = Trace.wall () in
  let c1 = Trace.cpu () in
  let outcome =
    host "driver.run" (fun parent ->
        match
          match spans with
          | None -> drive ops
          | Some s -> drive (traced_ops sim s ~sys:X.name ~parent ~txn_id:X.txn_id ops)
        with
        | r -> Ok r
        | exception e -> Error (Printf.sprintf "%s: %s" X.name (Printexc.to_string e)))
  in
  let run_cpu = Trace.cpu () -. c1 in
  let run_wall = Trace.wall () -. w0 in
  let g1 = Gc.quick_stat () in
  Sim.set_probe sim None;
  match outcome with
  | Error e -> Error e
  | Ok result ->
      let quiescent = host "quiescent" (fun _ -> X.quiescent cl) in
      let net_stats, layer = host "stats" (fun _ -> (Network.stats net, X.layer_stats cl)) in
      let history = X.history cl in
      let checks =
        List.map
          (fun p ->
            let c = Trace.cpu () in
            let verdict = host ("check." ^ p) (fun _ -> property p history) in
            (p, Trace.cpu () -. c, verdict))
          spec.checks
      in
      (match spans with
      | None -> ()
      | Some s -> Trace.finish s root ~v1:(Sim.now sim) ~c1:(Trace.cpu ()) ~suspended:false);
      Ok
        {
          sys = X.name;
          setup_cpu;
          run_cpu;
          run_wall;
          events = Sim.events_processed sim;
          vsecs = Sim.now sim;
          begun = counts.n_begun;
          committed = counts.n_committed;
          aborted = counts.n_aborted;
          result;
          net = net_stats;
          quiescent;
          history_events = History.length history;
          checks;
          layer;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
          probe = Option.map Trace.summarize probe;
          obs_metrics = Option.fold ~none:"" ~some:Sss_obs.Obs.metrics_json (X.obs cl);
        }

(* Set-up alone: build the cluster and drop it.  Used to take more set-up
   samples per run than there are full runs. *)
let setup_only spec =
  let module X = (val spec.system : SYSTEM) in
  let sim = Sim.create () in
  Gc.compact ();
  let c0 = Trace.cpu () in
  let cl = X.create sim spec.config in
  let dt = Trace.cpu () -. c0 in
  ignore (Sys.opaque_identity cl);
  dt

let layer_value seg name = Option.value ~default:0.0 (List.assoc_opt name seg.layer)
