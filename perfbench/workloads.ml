(* The three workloads.  Each is a list of segments run back to back in
   one process; the first segment is the primary one, whose driver
   statistics give the virtual-time metrics (the v_ family). *)

module Config = Sss_kv.Config
module Driver = Sss_workload.Driver

type t = {
  name : string;
  segments : seed:int -> traced:bool -> Systems.spec list;
  gc_differential : bool;  (** traced run re-runs the primary with [Config.gc] on *)
  observe_differential : bool;  (** traced run re-runs the primary with [observe] off *)
  min_checkpoints_per_node : int;
}

let closed ~seed ~clients ~warmup ~duration ~dist =
  {
    Driver.clients_per_node = clients;
    warmup;
    duration;
    seed;
    dist;
    retry_aborts = false;
    open_loop = None;
  }

(* Fig 3's traffic: 10 nodes x 10 closed-loop clients, 5k uniform keys,
   50% read-only, default config.  SSS, Walter and 2PC at degree 2; ROCOCO
   at degree 1, its paper setting (at degree 2 it raises Rpc.Stalled on a
   healthy run, a defect this benchmark does not paper over).  The traced
   run records SSS's history and checks it; the baselines promise weaker
   properties (Walter is PSI, 2PC and ROCOCO abort read-only txns). *)
let paper_closed =
  let segments ~seed ~traced =
    let config =
      {
        Config.default with
        nodes = 10;
        replication_degree = 2;
        total_keys = 5_000;
        seed;
        record_history = false;
      }
    in
    let profile = Driver.paper_profile ~read_only_ratio:0.5 in
    let load = closed ~seed ~clients:10 ~warmup:0.005 ~duration:0.030 ~dist:Driver.Uniform in
    let seg system config checks = { Systems.system; config; profile; load; checks } in
    [
      seg
        (module Systems.Sss)
        { config with record_history = traced }
        (if traced then [ "external_consistency"; "serializability"; "read_only_abort_free" ]
         else []);
      seg (module Systems.Walter) config [];
      seg (module Systems.Twopc) config [];
      seg (module Systems.Rococo) { config with replication_degree = 1 } [];
    ]
  in
  {
    name = "paper-closed";
    segments;
    gc_differential = true;
    observe_differential = false;
    min_checkpoints_per_node = 0;
  }

(* 64 nodes, 1M keys, open-loop Poisson arrivals below the knee into
   64-deep admission queues served by 8 workers per node; watermark GC on;
   80% read-only with Fig 8's 16-read read-only transactions. *)
let open_wide =
  let segments ~seed ~traced =
    let config =
      {
        Config.default with
        nodes = 64;
        replication_degree = 2;
        total_keys = 1_000_000;
        seed;
        gc = true;
        record_history = traced;
      }
    in
    let profile =
      { Driver.read_only_ratio = 0.8; update_ops = 2; ro_ops = 16; locality = 0.0 }
    in
    let load =
      {
        Driver.clients_per_node = 0;
        warmup = 0.005;
        duration = 0.040;
        seed;
        dist = Driver.Uniform;
        retry_aborts = false;
        open_loop =
          Some
            { Driver.arrival = Driver.Poisson 2_000.0; queue_capacity = 64; workers_per_node = 8 };
      }
    in
    [
      {
        Systems.system = (module Systems.Sss);
        config;
        profile;
        load;
        checks =
          (if traced then [ "external_consistency"; "serializability"; "read_only_abort_free" ]
           else []);
      };
    ]
  in
  {
    name = "open-wide";
    segments;
    gc_differential = false;
    observe_differential = false;
    min_checkpoints_per_node = 0;
  }

(* The write-heavy, contended mirror of open-wide: 8 nodes, 5k zipfian
   (0.9) keys, 20% read-only, durability on (group-commit WAL, 50 ms
   checkpoints), observer and history on, and every checker property on
   every run. *)
let durable_contended =
  let segments ~seed ~traced:_ =
    let config =
      {
        Config.default with
        nodes = 8;
        replication_degree = 2;
        total_keys = 5_000;
        seed;
        durability = true;
        checkpoint_interval = 0.05;
        observe = true;
        record_history = true;
      }
    in
    let profile = Driver.paper_profile ~read_only_ratio:0.2 in
    let load =
      closed ~seed ~clients:10 ~warmup:0.010 ~duration:0.160 ~dist:(Driver.Zipfian 0.9)
    in
    [
      {
        Systems.system = (module Systems.Sss);
        config;
        profile;
        load;
        checks =
          [
            "external_consistency";
            "serializability";
            "no_lost_updates";
            "no_torn_commits";
            "read_only_abort_free";
          ];
      };
    ]
  in
  {
    name = "durable-contended";
    segments;
    gc_differential = false;
    observe_differential = true;
    min_checkpoints_per_node = 3;
  }

let all = [ paper_closed; open_wide; durable_contended ]
let find name = List.find_opt (fun w -> w.name = name) all
