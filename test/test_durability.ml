(* Fail-stop-recover chaos: with [Config.durability] on, a node crash
   discards volatile state (Chaos [on_crash] -> crash_node) and the restart
   replays the write-ahead log (on_restart -> restart_node).  Every system
   must come back to a checker-accepted history — including no torn
   commits — across a seed sweep, with the crash landing mid-workload where
   group commits are continuously in flight.  SSS read-only transactions
   must still never abort.  And with durability OFF the hooks must change
   nothing: the off trajectory is byte-identical whether or not the crash
   hooks are wired. *)

open Sss_sim
open Sss_consistency
module Chaos = Sss_chaos.Chaos
module Driver = Sss_workload.Driver

(* crash node 2 mid-window; recovery gets ~a third of the run to finish
   and prove liveness afterwards *)
let crash_plan ~seed =
  {
    Chaos.seed;
    rules = [];
    events = [ Chaos.Crash { at = 0.015; restart_at = Some 0.019; node = 2 } ];
  }

let durable_config ~degree ~seed =
  {
    Sss_kv.Config.default with
    nodes = 4;
    replication_degree = degree;
    total_keys = 24;
    seed;
    fault_tolerance = true;
    durability = true;
  }

let load ~seed =
  { Driver.default_load with clients_per_node = 2; warmup = 0.005; duration = 0.03; seed }

let drive sim ~seed ~ops =
  Driver.run sim ~nodes:4 ~total_keys:24
    ~local_keys:(fun _ -> [||])
    ~profile:(Driver.paper_profile ~read_only_ratio:0.5)
    ~load:(load ~seed) ~ops

type outcome = {
  committed : int;
  checks : (string * (unit, string) result) list;
  history : History.t;
  events_processed : int;
  chaos_stats : Chaos.stats;
}

let sss_ops cl =
  {
    Driver.begin_txn = (fun ~node ~read_only -> Sss_kv.Kv.begin_txn cl ~node ~read_only);
    read = Sss_kv.Kv.read;
    write = Sss_kv.Kv.write;
    commit = Sss_kv.Kv.commit;
  }

let run_sss ?(durability = true) ?(wire_hooks = true) ~plan ~seed () =
  let sim = Sim.create () in
  let config = { (durable_config ~degree:2 ~seed) with durability } in
  let cl = Sss_kv.Kv.create sim config in
  let h =
    if wire_hooks then
      Chaos.install sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Message.kind_name
        ~on_crash:(Sss_kv.Kv.crash_node cl)
        ~on_restart:(Sss_kv.Kv.restart_node cl)
        plan
    else Chaos.install sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Message.kind_name plan
  in
  let result = drive sim ~seed ~ops:(sss_ops cl) in
  let history = Sss_kv.Kv.history cl in
  {
    committed = result.Driver.committed;
    checks =
      [
        ("sss external-consistency", Checker.external_consistency history);
        ("sss serializability", Checker.serializability history);
        ("sss no-lost-updates", Checker.no_lost_updates history);
        ("sss no-torn-commits", Checker.no_torn_commits history);
        ("sss ro-abort-free", Checker.read_only_abort_free history);
      ];
    history;
    events_processed = Sim.events_processed sim;
    chaos_stats = Chaos.stats h;
  }

let run_twopc ~plan ~seed =
  let sim = Sim.create () in
  let cl = Twopc_kv.Twopc.create sim (durable_config ~degree:2 ~seed) in
  let h =
    Chaos.install sim (Twopc_kv.Twopc.network cl) ~kind_of:Twopc_kv.Twopc.message_kind
      ~on_crash:(Twopc_kv.Twopc.crash_node cl)
      ~on_restart:(Twopc_kv.Twopc.restart_node cl)
      plan
  in
  let result =
    drive sim ~seed
      ~ops:
        {
          Driver.begin_txn =
            (fun ~node ~read_only -> Twopc_kv.Twopc.begin_txn cl ~node ~read_only);
          read = Twopc_kv.Twopc.read;
          write = Twopc_kv.Twopc.write;
          commit = Twopc_kv.Twopc.commit;
        }
  in
  let history = Twopc_kv.Twopc.history cl in
  {
    committed = result.Driver.committed;
    checks =
      [
        ("2pc external-consistency", Checker.external_consistency history);
        ("2pc no-lost-updates", Checker.no_lost_updates history);
        ("2pc no-torn-commits", Checker.no_torn_commits history);
      ];
    history;
    events_processed = Sim.events_processed sim;
    chaos_stats = Chaos.stats h;
  }

let run_walter ~plan ~seed =
  let sim = Sim.create () in
  let cl = Walter_kv.Walter.create sim (durable_config ~degree:2 ~seed) in
  let h =
    Chaos.install sim (Walter_kv.Walter.network cl) ~kind_of:Walter_kv.Walter.message_kind
      ~on_crash:(Walter_kv.Walter.crash_node cl)
      ~on_restart:(Walter_kv.Walter.restart_node cl)
      plan
  in
  let result =
    drive sim ~seed
      ~ops:
        {
          Driver.begin_txn =
            (fun ~node ~read_only -> Walter_kv.Walter.begin_txn cl ~node ~read_only);
          read = Walter_kv.Walter.read;
          write = Walter_kv.Walter.write;
          commit = Walter_kv.Walter.commit;
        }
  in
  let history = Walter_kv.Walter.history cl in
  {
    committed = result.Driver.committed;
    checks =
      [
        ("walter no-lost-updates", Checker.no_lost_updates history);
        ("walter no-torn-commits", Checker.no_torn_commits history);
        ("walter ro-abort-free", Checker.read_only_abort_free history);
      ];
    history;
    events_processed = Sim.events_processed sim;
    chaos_stats = Chaos.stats h;
  }

let run_rococo ~plan ~seed =
  let sim = Sim.create () in
  let cl = Rococo_kv.Rococo.create sim (durable_config ~degree:1 ~seed) in
  let h =
    Chaos.install sim (Rococo_kv.Rococo.network cl) ~kind_of:Rococo_kv.Rococo.message_kind
      ~on_crash:(Rococo_kv.Rococo.crash_node cl)
      ~on_restart:(Rococo_kv.Rococo.restart_node cl)
      plan
  in
  let result =
    drive sim ~seed
      ~ops:
        {
          Driver.begin_txn =
            (fun ~node ~read_only -> Rococo_kv.Rococo.begin_txn cl ~node ~read_only);
          read = Rococo_kv.Rococo.read;
          write = Rococo_kv.Rococo.write;
          commit = Rococo_kv.Rococo.commit;
        }
  in
  let history = Rococo_kv.Rococo.history cl in
  {
    committed = result.Driver.committed;
    checks =
      [
        ("rococo serializability", Checker.serializability history);
        ("rococo no-lost-updates", Checker.no_lost_updates history);
        ("rococo no-torn-commits", Checker.no_torn_commits history);
      ];
    history;
    events_processed = Sim.events_processed sim;
    chaos_stats = Chaos.stats h;
  }

let systems =
  [
    ("sss", fun ~plan ~seed -> run_sss ~plan ~seed ());
    ("2pc", run_twopc);
    ("walter", run_walter);
    ("rococo", run_rococo);
  ]

let assert_recovered name seed (o : outcome) =
  if o.chaos_stats.Chaos.crashes <> 1 || o.chaos_stats.Chaos.restarts <> 1 then
    Alcotest.failf "%s seed=%d: crash/restart did not fire" name seed;
  List.iter
    (fun (check, res) ->
      match res with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s seed=%d %s: %s" name seed check msg)
    o.checks;
  (* liveness: work committed after the restart *)
  let after_restart =
    List.exists
      (fun (s : History.stamped) ->
        match s.History.event with
        | History.Commit _ -> s.History.at > 0.019
        | _ -> false)
      (History.events o.history)
  in
  if not after_restart then Alcotest.failf "%s seed=%d: nothing committed after recovery" name seed

(* ---------- the sweep: every system, 10 seeds, crash mid-run ---------- *)

let test_crash_recovery_sweep () =
  let total = ref 0 in
  for seed = 1 to 10 do
    List.iter
      (fun (name, run) ->
        let o = run ~plan:(crash_plan ~seed) ~seed in
        total := !total + o.committed;
        assert_recovered name seed o)
      systems
  done;
  if !total = 0 then Alcotest.fail "durable sweep committed nothing"

(* mid-group-commit precision: land crashes on a dense grid around the
   default fsync latency so some hit with flushes in flight *)
let test_sss_crash_grid () =
  List.iteri
    (fun i at ->
      let seed = 100 + i in
      let plan =
        {
          Chaos.seed;
          rules = [];
          events = [ Chaos.Crash { at; restart_at = Some (at +. 0.004); node = 1 } ];
        }
      in
      let o = run_sss ~plan ~seed () in
      if o.chaos_stats.Chaos.crashes <> 1 then Alcotest.failf "grid %d: crash did not fire" i;
      List.iter
        (fun (check, res) ->
          match res with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "grid at=%.6f %s: %s" at check msg)
        o.checks)
    [ 0.0100; 0.01002; 0.01004; 0.01006; 0.01008; 0.0101 ]

(* SSS read-only abort-freedom survives durability + crash: no RO abort
   events, and RO work actually committed *)
let test_sss_ro_abort_free_durable () =
  for seed = 1 to 10 do
    let o = run_sss ~plan:(crash_plan ~seed) ~seed () in
    let ro_txns = Hashtbl.create 64 in
    let ro_aborts = ref 0 and ro_commits = ref 0 in
    List.iter
      (fun (s : History.stamped) ->
        match s.History.event with
        | History.Begin { txn; ro = true; _ } -> Hashtbl.replace ro_txns txn ()
        | History.Abort { txn } -> if Hashtbl.mem ro_txns txn then incr ro_aborts
        | History.Commit { txn; _ } -> if Hashtbl.mem ro_txns txn then incr ro_commits
        | _ -> ())
      (History.events o.history);
    Alcotest.(check int) (Printf.sprintf "seed %d: RO aborts" seed) 0 !ro_aborts;
    if !ro_commits = 0 then Alcotest.failf "seed %d: no RO transaction committed" seed
  done

(* Lock accounting balances across aborts and a crash/restart: every
   counted grant ([lock.acquire]) has exactly one counted release — the
   crash counts the grants it drops, the recovery re-lock of in-doubt
   entries counts as a grant — and the run ends quiescent. *)
let test_sss_lock_counters_balance () =
  let aborted = ref 0 in
  for seed = 1 to 10 do
    let sim = Sim.create () in
    let cl =
      Sss_kv.Kv.create sim { (durable_config ~degree:2 ~seed) with observe = true }
    in
    let h =
      Chaos.install sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Message.kind_name
        ~on_crash:(Sss_kv.Kv.crash_node cl)
        ~on_restart:(Sss_kv.Kv.restart_node cl)
        (crash_plan ~seed)
    in
    let result = drive sim ~seed ~ops:(sss_ops cl) in
    aborted := !aborted + result.Driver.aborted;
    if (Chaos.stats h).Chaos.crashes <> 1 then Alcotest.failf "seed %d: crash did not fire" seed;
    (match Sss_kv.Kv.quiescent cl with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: not quiescent: %s" seed msg);
    let o = Option.get (Sss_kv.Kv.obs cl) in
    let acquired = Sss_obs.Obs.counter o "lock.acquire" in
    if acquired = 0 then Alcotest.failf "seed %d: no lock was counted" seed;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: lock.release = lock.acquire" seed)
      acquired
      (Sss_obs.Obs.counter o "lock.release")
  done;
  if !aborted = 0 then Alcotest.fail "the sweep aborted nothing"

(* A key holds a snapshot-queue only while the queue has entries: inserts
   create it, the removal that empties it drops it, and read-only probes
   create nothing.  So a quiescent cluster holds no queue at all — on the
   node reborn from its log as on the others. *)
let test_sss_squeues_drained () =
  for seed = 1 to 6 do
    let sim = Sim.create () in
    let cl = Sss_kv.Kv.create sim (durable_config ~degree:2 ~seed) in
    let h =
      Chaos.install sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Message.kind_name
        ~on_crash:(Sss_kv.Kv.crash_node cl)
        ~on_restart:(Sss_kv.Kv.restart_node cl)
        (crash_plan ~seed)
    in
    let result = drive sim ~seed ~ops:(sss_ops cl) in
    if (Chaos.stats h).Chaos.crashes <> 1 then Alcotest.failf "seed %d: crash did not fire" seed;
    if result.Driver.committed = 0 then Alcotest.failf "seed %d: nothing committed" seed;
    (match Sss_kv.Kv.quiescent cl with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: not quiescent: %s" seed msg);
    Array.iter
      (fun (n : Sss_kv.State.node) ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d node %d: snapshot-queues left" seed n.Sss_kv.State.id)
          0
          (Hashtbl.length n.Sss_kv.State.squeues))
      cl.Sss_kv.State.nodes
  done

(* ---------- determinism: a durable crashy run replays byte-identically ---------- *)

let test_deterministic_replay () =
  List.iter
    (fun (name, run) ->
      let seed = 7 in
      let a = run ~plan:(crash_plan ~seed) ~seed in
      let b = run ~plan:(crash_plan ~seed) ~seed in
      Alcotest.(check int) (name ^ ": events processed") a.events_processed b.events_processed;
      if History.events a.history <> History.events b.history then
        Alcotest.failf "%s: durable histories diverge between identical runs" name)
    systems

(* ---------- durability off: the hooks are inert ---------- *)

let test_off_trajectory_unchanged () =
  let seed = 7 in
  (* without durability, crash_node/restart_node fall back to the NIC-only
     fault: wiring the hooks must not move a single event *)
  let bare = run_sss ~durability:false ~wire_hooks:false ~plan:(crash_plan ~seed) ~seed () in
  let hooked = run_sss ~durability:false ~wire_hooks:true ~plan:(crash_plan ~seed) ~seed () in
  Alcotest.(check int) "events identical" bare.events_processed hooked.events_processed;
  if History.events bare.history <> History.events hooked.history then
    Alcotest.fail "durability=off trajectory depends on hook wiring"

let () =
  Alcotest.run "durability"
    [
      ( "recovery",
        [
          Alcotest.test_case "crash-recovery sweep" `Quick test_crash_recovery_sweep;
          Alcotest.test_case "sss crash grid" `Quick test_sss_crash_grid;
          Alcotest.test_case "sss ro abort-free" `Quick test_sss_ro_abort_free_durable;
          Alcotest.test_case "sss lock counters balance" `Quick test_sss_lock_counters_balance;
          Alcotest.test_case "sss snapshot-queues drained" `Quick test_sss_squeues_drained;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "off trajectory unchanged" `Quick test_off_trajectory_unchanged;
        ] );
    ]
