(* Walter-style Parallel Snapshot Isolation (Sovran et al., SOSP'11),
   re-implemented on the same substrate as SSS, as the paper does for its
   evaluation (§V).

   Model implemented (the parts the YCSB evaluation exercises):
   - every transaction gets a start vector timestamp: one sequence number
     per site, denoting the committed prefix applied at its home site;
   - reads return the newest version visible in the start timestamp,
     without validation; read-only transactions never abort and commit
     locally (no messages) — the property that makes Walter the throughput
     upper bound in Fig. 3;
   - update transactions conflict-check their write-set at each written
     key's preferred site (the key's primary replica): fast path when every
     primary is the home site (purely local commit), slow path via a
     2PC-like round otherwise;
   - the client is answered as soon as the home site commits; writes
     propagate to the other replicas asynchronously, in per-site sequence
     order (PSI's "long fork" is observable: snapshots on different sites
     may order non-conflicting transactions differently).

   Omitted (not exercised by the benchmark): c-sets/counting sets, cross-
   data-center disaster tolerance. *)

open Sss_sim
open Sss_data
open Sss_net
open Sss_consistency
module Obs = Sss_obs.Obs

type version = {
  value : string;
  writer : Ids.txn;
  site : Ids.node;  (* writer's home site *)
  seq : int;  (* writer's position in its site's commit order *)
  wstart : Vclock.t;  (* the writer's start snapshot: orders same-key versions *)
}

(* What a recovered participant learns about an in-doubt transaction when
   it queries the coordinator (durability mode, docs/DURABILITY.md). *)
type verdict = Vcommitted | Vaborted | Vundecided

type msg =
  | Read_req of { req : int; key : Ids.key; start : Vclock.t }
  | Read_ret of { req : int; value : string; writer : Ids.txn }
  | Wprepare of {
      txn : Ids.txn;
      coord : Ids.node;
      start : Vclock.t;
      keys : Ids.key list;  (* written keys whose primary is this node *)
    }
  | Wvote of { txn : Ids.txn; ok : bool }
  | Wdecide of { txn : Ids.txn; outcome : bool }
  | Propagate of {
      txn : Ids.txn;
      site : Ids.node;
      seq : int;
      start : Vclock.t;
      writes : (Ids.key * string) list;  (* full write set; nodes filter *)
    }
  | Query of { req : int; txn : Ids.txn }
  | Outcome of { req : int; verdict : verdict }
  | Pull of { have : Vclock.t }
      (* recovery: "re-send me your own commits past [have]" *)
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

let rec priority = function
  | Wdecide _ -> 40
  | Wvote _ | Query _ | Outcome _ -> 60
  | Propagate _ | Pull _ -> 80
  | Read_req _ | Read_ret _ | Wprepare _ -> 100
  | Tracked { inner; _ } -> priority inner
  | Delivered _ -> 10

(* Kind names, indexed by [kind_id] (the network observer resolves its
   per-kind handles from this table once). *)
let kind_names =
  [
    "read_request";
    "read_return";
    "prepare";
    "vote";
    "decide";
    "propagate";
    "query";
    "outcome";
    "pull";
    "delivered";
  ]

let rec kind_id = function
  | Read_req _ -> 0
  | Read_ret _ -> 1
  | Wprepare _ -> 2
  | Wvote _ -> 3
  | Wdecide _ -> 4
  | Propagate _ -> 5
  | Query _ -> 6
  | Outcome _ -> 7
  | Pull _ -> 8
  | Delivered _ -> 9
  | Tracked { inner; _ } -> kind_id inner

let message_kind m = List.nth kind_names (kind_id m)

type vote_box = {
  expect : int;
  mutable votes : int;
  mutable any_false : bool;
  vchanged : Sim.Cond.t;
}

(* A yes-vote's local state: enough to restore locks and find the
   coordinator after a restart. *)
type wprep = { keys : Ids.key list; coord : Ids.node }

(* Durability-mode write-ahead-log records (docs/DURABILITY.md). *)
type logrec =
  | WCommit of {
      txn : Ids.txn;
      seq : int;
      start : Vclock.t;
      writes : (Ids.key * string) list;
    }  (* commit decided at this (home) site *)
  | WPrepared of { txn : Ids.txn; prep : wprep }  (* slow-path yes vote *)
  | WAborted of { txn : Ids.txn }  (* slow-path Wdecide(false) seen *)

(* Checkpoint image: deep copy, deterministic (sorted) order. *)
type snap = {
  s_chains : (Ids.key * version list) list;
  s_applied : Vclock.t;
  s_site_seq : int;
  s_origin : (int * (Ids.txn * Vclock.t * (Ids.key * string) list)) list;
  s_committed : Ids.txn list;
  s_prepared : (Ids.txn * wprep) list;
  s_aborted : Ids.txn list;
}

type node = {
  id : Ids.node;
  chains : (Ids.key, version list ref) Hashtbl.t;  (* newest first by kver *)
  mutable applied : Vclock.t;  (* committed prefix applied locally, per site *)
  mutable site_seq : int;  (* commits originated at this site *)
  holdback :
    (Ids.node, (int * (Ids.txn * Vclock.t * (Ids.key * string) list)) list ref) Hashtbl.t;
  locks : Locks.t;
  prepared : (Ids.txn, wprep) Hashtbl.t;
  aborted_decides : (Ids.txn, unit) Hashtbl.t;
  gen : Ids.Gen.t;
  pending_reads : (string * Ids.txn) Rpc.Pending.t;
  vote_boxes : (Ids.txn, vote_box) Hashtbl.t;
  applied_changed : Sim.Cond.t;
  (* durability mode only *)
  mutable alive : bool;
  origin_log : (int, Ids.txn * Vclock.t * (Ids.key * string) list) Hashtbl.t;
      (* own-site commit order, seq -> payload; serves Pull re-sends *)
  committed : (Ids.txn, bool) Hashtbl.t;
      (* commits decided at this site; [true] once the WCommit record is
         durable — only then may a Query be answered "committed" *)
  pending_outcomes : verdict Rpc.Pending.t;
  mutable wal : (logrec, snap) Sss_storage.Storage.t option;
}

type cluster = {
  sim : Sim.t;
  config : Sss_kv.Config.t;
  repl : Replication.t;
  net : msg Network.t;
  rel : msg Reliable.t;
  nodes : node array;
  history : History.t;
  obs : Obs.t option;
}

type handle = {
  cl : cluster;
  home : node;
  id : Ids.txn;
  ro : bool;
  start : Vclock.t;
  mutable ws : (Ids.key * string) list;
  mutable finished : bool;
  begin_at : float;
}

let record t event = History.record t.history ~at:(Sim.now t.sim) event

let send t ~src ~dst payload =
  let prio = priority payload in
  if t.config.Sss_kv.Config.fault_tolerance then
    Reliable.send t.rel ~prio ~src ~dst (fun token -> Tracked { token; inner = payload })
  else Network.send t.net ~prio ~src ~dst payload

let primary t key = List.hd (Replication.replicas t.repl key)

let chain (node : node) key =
  match Hashtbl.find_opt node.chains key with
  | Some r -> r
  | None -> invalid_arg "Walter: unknown key"

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let writes_bytes ws = List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 ws

let logrec_bytes nodes = function
  | WCommit { writes; _ } -> 16 + 16 + (8 * nodes) + writes_bytes writes
  | WPrepared { prep; _ } -> 16 + 16 + (8 * List.length prep.keys)
  | WAborted _ -> 16 + 8

let snap_bytes nodes (s : snap) =
  64
  + List.fold_left
      (fun acc (_, vers) ->
        acc + 8
        + List.fold_left
            (fun a (v : version) -> a + 24 + (8 * nodes) + String.length v.value)
            0 vers)
      0 s.s_chains
  + (8 * nodes)
  + List.fold_left
      (fun acc (_, (_, _, ws)) -> acc + 16 + (8 * nodes) + writes_bytes ws)
      0 s.s_origin
  + (8 * List.length s.s_committed)
  + List.fold_left (fun acc (_, p) -> acc + 16 + (8 * List.length p.keys)) 0 s.s_prepared
  + (8 * List.length s.s_aborted)

let sorted_bindings table =
  List.sort
    (fun (a, _) (b, _) -> Ids.compare_txn a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] [@order_ok])

let snap_of (node : node) =
  {
    s_chains =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) node.chains [] [@order_ok]);
    s_applied = node.applied;
    s_site_seq = node.site_seq;
    s_origin =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun s p acc -> (s, p) :: acc) node.origin_log [] [@order_ok]);
    s_committed =
      List.sort Ids.compare_txn
        (Hashtbl.fold
           (fun txn durable acc -> if durable then txn :: acc else acc)
           node.committed [] [@order_ok]);
    s_prepared = sorted_bindings node.prepared;
    s_aborted = List.map fst (sorted_bindings node.aborted_decides);
  }

let log (node : node) r =
  match node.wal with
  | Some w -> Some (Sss_storage.Storage.append w r)
  | None -> None

(* Await durability of the given append; [true] when it is safe to act on
   it (immediately so when durability is off). *)
let log_sync (node : node) lsn =
  match (node.wal, lsn) with
  | Some w, Some l -> Sss_storage.Storage.await w l
  | _ -> true

(* Is this node record still the live one?  A crash under durability
   replaces the record, so stale fibers observe it here. *)
let node_live (cl : cluster) (node : node) = cl.nodes.(node.id) == node

(* Newest version whose writer's commit is within the snapshot.  The caller
   guarantees the snapshot is applied locally, so the first visible version
   in the (write-order sorted) chain is the newest. *)
let visible_read (node : node) key ~start =
  let rec pick = function
    | [] -> assert false
    | [ oldest ] -> oldest
    | v :: rest ->
        if Ids.equal_txn v.writer Ids.genesis || v.seq <= Vclock.get start v.site then v
        else pick rest
  in
  pick !(chain node key)

(* A write is admissible if the newest version of the key was visible in the
   writer's snapshot (no concurrent committed writer: PSI's write-write
   conflict rule). *)
let ww_ok (node : node) key ~start =
  match !(chain node key) with
  | [] -> true
  | v :: _ -> Ids.equal_txn v.writer Ids.genesis || v.seq <= Vclock.get start v.site

(* Install a version, keeping the chain in write order: write-write
   conflicts serialize same-key writers, so for two versions one writer's
   start snapshot always covers the other's commit. *)
let install (node : node) key ver =
  let r = chain node key in
  let after v older =
    Ids.equal_txn older.writer Ids.genesis
    || older.seq <= Vclock.get v.wstart older.site
  in
  let rec insert = function
    | [] -> [ ver ]
    | v :: _ as all when after ver v -> ver :: all
    | v :: rest -> v :: insert rest
  in
  r := insert !r

(* Apply a committed transaction's writes locally and advance the per-site
   applied prefix (in per-site sequence order; out-of-order deliveries are
   held back). *)
let rec apply_committed t (node : node) ~txn ~site ~seq ~start ~writes =
  if seq = Vclock.get node.applied site + 1 then begin
    List.iter
      (fun (k, value) ->
        if Replication.is_replica t.repl node.id k then begin
          if primary t k = node.id then record t (History.Install { txn; key = k });
          install node k { value; writer = txn; site; seq; wstart = start }
        end)
      writes;
    node.applied <- Vclock.set node.applied site seq;
    Hashtbl.remove node.prepared txn;
    Locks.release_txn node.locks txn;
    Sim.Cond.broadcast t.sim node.applied_changed;
    (* drain any held-back successors from the same site *)
    match Hashtbl.find_opt node.holdback site with
    | None -> ()
    | Some pending -> (
        let next = Vclock.get node.applied site + 1 in
        match List.assoc_opt next !pending with
        | None -> ()
        | Some (txn', start', writes') ->
            pending := List.remove_assoc next !pending;
            apply_committed t node ~txn:txn' ~site ~seq:next ~start:start' ~writes:writes')
  end
  else if seq > Vclock.get node.applied site then begin
    let pending =
      match Hashtbl.find_opt node.holdback site with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace node.holdback site r;
          r
    in
    if not (List.mem_assoc seq !pending) then
      pending := (seq, (txn, start, writes)) :: !pending
  end

(* Termination protocol for a prepared transaction whose outcome this
   participant does not know — because the participant restarted with the
   prepare on disk, or because the coordinator crashed before deciding.
   On "committed" nothing is done here: the (re-)propagated write applies
   the transaction and releases its locks. *)
let resolve_indoubt t (node : node) txn (prep : wprep) =
  let rec loop attempt =
    if node_live t node && Hashtbl.mem node.prepared txn then
      if attempt >= t.config.Sss_kv.Config.retry_limit then
        Rpc.stalled ~system:"walter" ~phase:"in-doubt" (Ids.txn_to_string txn)
      else begin
        let req, slot = Rpc.Pending.fresh node.pending_outcomes in
        send t ~src:node.id ~dst:prep.coord (Query { req; txn });
        match
          Rpc.Pending.await_timeout t.sim slot ~timeout:t.config.Sss_kv.Config.retry_max
        with
        | Some Vcommitted -> ()
        | Some Vaborted ->
            if node_live t node && Hashtbl.mem node.prepared txn then begin
              Hashtbl.replace node.aborted_decides txn ();
              Hashtbl.remove node.prepared txn;
              ignore (log node (WAborted { txn }) : int option);
              Locks.release_txn node.locks txn
            end
        | Some Vundecided | None ->
            Rpc.Pending.forget node.pending_outcomes req;
            Sim.sleep t.sim t.config.Sss_kv.Config.retry_initial;
            loop (attempt + 1)
      end
  in
  try loop 0 with Rpc.Crashed _ -> ()

let handle_prepare t (node : node) ~txn ~coord ~start ~keys =
  let ok =
    (not (Hashtbl.mem node.aborted_decides txn))
    && Locks.acquire_all node.locks txn ~exclusive:keys ~shared:[]
         ~timeout:t.config.Sss_kv.Config.lock_timeout
    && List.for_all (fun k -> ww_ok node k ~start) keys
    && not (Hashtbl.mem node.aborted_decides txn)
    (* the node may have crashed while this fiber waited for the locks:
       a stale record must not vote (or log) on behalf of the fresh one *)
    && node_live t node
  in
  if not ok then begin
    Locks.release_txn node.locks txn;
    send t ~src:node.id ~dst:coord (Wvote { txn; ok = false })
  end
  else begin
    let prep = { keys; coord } in
    Hashtbl.replace node.prepared txn prep;
    (* force the prepare record before promising "yes": after a crash this
       node must still be able to honour a commit decision *)
    let lsn = log node (WPrepared { txn; prep }) in
    (* a yes-voter may be orphaned by a coordinator crash: if the decision
       is still unknown after a couple of retry rounds, go ask for it *)
    if t.config.Sss_kv.Config.durability then
      Sim.spawn t.sim (fun () ->
          Sim.sleep t.sim (2. *. t.config.Sss_kv.Config.retry_max);
          resolve_indoubt t node txn prep);
    if log_sync node lsn then send t ~src:node.id ~dst:coord (Wvote { txn; ok = true })
  end

let rec dispatch t (node : node) ~src payload =
  match payload with
  | Tracked { token; inner } ->
      Network.send t.net ~prio:(priority (Delivered { token })) ~src:node.id ~dst:src
        (Delivered { token });
      if Reliable.receive t.rel token then dispatch t node ~src inner
  | Delivered { token } -> Reliable.delivered t.rel token
  | Read_req { req; key; start } ->
      (* Walter reads block until the local replica has applied the whole
         snapshot (Sovran et al. §4): otherwise a lagging replica would
         return stale data the snapshot already covers. *)
      Sim.Cond.await t.sim node.applied_changed (fun () -> Vclock.leq start node.applied);
      let v = visible_read node key ~start in
      send t ~src:node.id ~dst:src (Read_ret { req; value = v.value; writer = v.writer })
  | Read_ret { req; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_reads req (value, writer)
  | Wprepare { txn; coord; start; keys } -> handle_prepare t node ~txn ~coord ~start ~keys
  | Wvote { txn; ok } -> (
      match Hashtbl.find_opt node.vote_boxes txn with
      | Some box ->
          box.votes <- box.votes + 1;
          if not ok then box.any_false <- true;
          Sim.Cond.broadcast t.sim box.vchanged
      | None -> ())
  | Wdecide { txn; outcome } ->
      if not outcome then begin
        Hashtbl.replace node.aborted_decides txn ();
        Hashtbl.remove node.prepared txn;
        (* presumed abort: the record spares recovery a query, but nothing
           externally visible depends on it — no flush wait *)
        ignore (log node (WAborted { txn }) : int option);
        Locks.release_txn node.locks txn
      end
      (* on commit the locks are released when the propagated write applies,
         so no concurrent writer can slip a conflicting check in between *)
  | Propagate { txn; site; seq; start; writes } ->
      apply_committed t node ~txn ~site ~seq ~start ~writes
  | Query { req; txn } ->
      (* a participant resolving an in-doubt transaction coordinated here.
         "Committed" may only be answered once the decision record is
         durable; an in-flight decision reads as undecided; everything
         else is presumed aborted. *)
      let verdict =
        match Hashtbl.find_opt node.committed txn with
        | Some true -> Vcommitted
        | Some false -> Vundecided
        | None -> if Hashtbl.mem node.vote_boxes txn then Vundecided else Vaborted
      in
      send t ~src:node.id ~dst:src (Outcome { req; verdict })
  | Outcome { req; verdict } -> Rpc.Pending.resolve t.sim node.pending_outcomes req verdict
  | Pull { have } ->
      (* recovery catch-up: re-send this site's own commits the puller has
         not applied yet, in sequence order *)
      let floor = Vclock.get have node.id in
      let seqs =
        List.sort Int.compare
          (Hashtbl.fold
             (fun s _ acc -> if s > floor then s :: acc else acc)
             node.origin_log [] [@order_ok])
      in
      List.iter
        (fun seq ->
          let txn, start, writes = Hashtbl.find node.origin_log seq in
          send t ~src:node.id ~dst:src
            (Propagate { txn; site = node.id; seq; start; writes }))
        seqs

let create sim (config : Sss_kv.Config.t) =
  let repl =
    Replication.create ~nodes:config.nodes ~degree:config.replication_degree
      ~total_keys:config.total_keys
  in
  let rng = Prng.create ~seed:config.seed in
  let net = Network.create sim rng ~nodes:config.nodes ~config:config.network in
  let nodes =
    Array.init config.nodes (fun id ->
        {
          id;
          chains = Hashtbl.create 256;
          applied = Vclock.zero config.nodes;
          site_seq = 0;
          holdback = Hashtbl.create 8;
          locks = Locks.create sim;
          prepared = Hashtbl.create 64;
          aborted_decides = Hashtbl.create 64;
          gen = Ids.Gen.create id;
          pending_reads = Rpc.Pending.create ();
          vote_boxes = Hashtbl.create 64;
          applied_changed = Sim.Cond.create ();
          alive = true;
          origin_log = Hashtbl.create 64;
          committed = Hashtbl.create 64;
          pending_outcomes = Rpc.Pending.create ();
          wal = None;
        })
  in
  let zero = Vclock.zero config.nodes in
  Array.iter
    (fun (node : node) ->
      Array.iter
        (fun k ->
          Hashtbl.replace node.chains k
            (ref
               [
                 {
                   value = Ids.boot_value k;
                   writer = Ids.genesis;
                   site = 0;
                   seq = 0;
                   wstart = zero;
                 };
               ]))
        (Replication.keys_at repl node.id))
    nodes;
  let rel =
    Reliable.create sim net
      ~retry:
        {
          Reliable.initial = config.retry_initial;
          max = config.retry_max;
          limit = config.retry_limit;
        }
  in
  let obs =
    if config.observe then Some (Obs.create ~capacity:config.trace_capacity sim)
    else None
  in
  (match obs with
  | Some o -> Network.set_observer net (Some { Network.obs = o; kind_id; kind_names })
  | None -> ());
  Reliable.set_obs rel obs;
  let t =
    { sim; config; repl; net; rel; nodes;
      history = History.create ~enabled:config.record_history (); obs }
  in
  Array.iter
    (fun (n : node) ->
      Network.set_handler net n.id (fun ~src payload -> dispatch t n ~src payload))
    nodes;
  if config.durability then
    Array.iter
      (fun (n : node) ->
        let dev =
          Iodev.create sim ~op_latency:config.fsync_latency
            ~bandwidth:config.disk_bandwidth
        in
        let w =
          Sss_storage.Storage.create sim dev
            ~record_bytes:(logrec_bytes config.nodes)
            ~snapshot:(fun () -> snap_of t.nodes.(n.id))
            ~snapshot_bytes:(snap_bytes config.nodes) ?obs:t.obs ()
        in
        n.wal <- Some w;
        Sss_storage.Storage.start_checkpoints w ~interval:config.checkpoint_interval)
      nodes;
  t

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap (node : node) (s : snap) =
  List.iter (fun (k, vers) -> chain node k := vers) s.s_chains;
  node.applied <- s.s_applied;
  node.site_seq <- s.s_site_seq;
  List.iter (fun (seq, p) -> Hashtbl.replace node.origin_log seq p) s.s_origin;
  List.iter (fun txn -> Hashtbl.replace node.committed txn true) s.s_committed;
  List.iter (fun (txn, p) -> Hashtbl.replace node.prepared txn p) s.s_prepared;
  List.iter (fun txn -> Hashtbl.replace node.aborted_decides txn ()) s.s_aborted

(* Redo one durable record.  Chains are not touched here: own-site commits
   past the applied prefix are re-applied (and re-propagated) in a second
   pass, remote-site writes are pulled from their origins. *)
let replay_record (node : node) = function
  | WCommit { txn; seq; start; writes } ->
      Hashtbl.replace node.origin_log seq (txn, start, writes);
      Hashtbl.replace node.committed txn true;
      if seq > node.site_seq then node.site_seq <- seq
  | WPrepared { txn; prep } -> Hashtbl.replace node.prepared txn prep
  | WAborted { txn } ->
      Hashtbl.remove node.prepared txn;
      Hashtbl.replace node.aborted_decides txn ()

let crash_node t id =
  if t.config.Sss_kv.Config.durability then begin
    let old = t.nodes.(id) in
    old.alive <- false;
    (match old.wal with Some w -> Sss_storage.Storage.crash w | None -> ());
    let e = Rpc.Crashed { system = "walter"; node = id } in
    Rpc.Pending.poison_all t.sim old.pending_reads e;
    Rpc.Pending.poison_all t.sim old.pending_outcomes e;
    let zero = Vclock.zero t.config.Sss_kv.Config.nodes in
    let fresh =
      {
        id;
        chains = Hashtbl.create 256;
        applied = zero;
        site_seq = 0;
        holdback = Hashtbl.create 8;
        locks = Locks.create t.sim;
        prepared = Hashtbl.create 64;
        aborted_decides = Hashtbl.create 64;
        (* transaction ids name client requests, not node state: the
           counter persists so a restarted node never re-mints an id *)
        gen = old.gen;
        pending_reads = Rpc.Pending.create ();
        vote_boxes = Hashtbl.create 64;
        applied_changed = Sim.Cond.create ();
        alive = false;
        origin_log = Hashtbl.create 64;
        committed = Hashtbl.create 64;
        pending_outcomes = Rpc.Pending.create ();
        wal = old.wal;
      }
    in
    Array.iter
      (fun k ->
        Hashtbl.replace fresh.chains k
          (ref
             [
               {
                 value = Ids.boot_value k;
                 writer = Ids.genesis;
                 site = 0;
                 seq = 0;
                 wstart = zero;
               };
             ]))
      (Replication.keys_at t.repl id);
    t.nodes.(id) <- fresh;
    Network.set_handler t.net id (fun ~src payload -> dispatch t fresh ~src payload)
  end

let restart_node t id =
  let node = t.nodes.(id) in
  match node.wal with
  | None -> Network.recover t.net id
  | Some w ->
      Sss_storage.Storage.recover w (fun ~recovered ~replay ->
          Sim.run_fiber (fun () ->
              (match recovered with Some s -> load_snap node s | None -> ());
              List.iter (replay_record node) replay;
              (* redo own-site commits past the applied prefix: a commit
                 can be durable without its local apply (or its Propagate
                 fan-out) having happened *)
              let resend = ref [] in
              let rec catchup () =
                let next = Vclock.get node.applied node.id + 1 in
                if next <= node.site_seq then
                  match Hashtbl.find_opt node.origin_log next with
                  | None -> ()
                  | Some (txn, start, writes) ->
                      apply_committed t node ~txn ~site:node.id ~seq:next ~start
                        ~writes;
                      resend := (txn, next, start, writes) :: !resend;
                      catchup ()
              in
              catchup ();
              let indoubt = sorted_bindings node.prepared in
              (* in-doubt transactions held their (exclusive) locks when
                 the node went down; restore them before admitting new
                 prepares.  The set is mutually compatible, so acquisition
                 is immediate. *)
              List.iter
                (fun (txn, (p : wprep)) ->
                  ignore
                    (Locks.acquire_all node.locks txn ~exclusive:p.keys ~shared:[]
                       ~timeout:t.config.Sss_kv.Config.lock_timeout
                      : bool))
                indoubt;
              node.alive <- true;
              Network.recover t.net id;
              Sss_storage.Storage.start_checkpoints w
                ~interval:t.config.Sss_kv.Config.checkpoint_interval;
              List.iter
                (fun (txn, seq, start, writes) ->
                  for dst = 0 to t.config.Sss_kv.Config.nodes - 1 do
                    if dst <> id then
                      send t ~src:id ~dst
                        (Propagate { txn; site = id; seq; start; writes })
                  done)
                (List.rev !resend);
              (* fetch remote-site commits this replica missed while down *)
              for dst = 0 to t.config.Sss_kv.Config.nodes - 1 do
                if dst <> id then send t ~src:id ~dst (Pull { have = node.applied })
              done;
              List.iter
                (fun (txn, p) ->
                  Sim.spawn t.sim (fun () -> resolve_indoubt t node txn p))
                indoubt))

let begin_txn cl ~node ~read_only =
  let home = cl.nodes.(node) in
  if not home.alive then Rpc.crashed ~system:"walter" ~node;
  let id = Ids.Gen.next home.gen in
  record cl (History.Begin { txn = id; ro = read_only; node });
  (match cl.obs with Some o -> Obs.txn_begin o id ~node ~ro:read_only | None -> ());
  { cl; home; id; ro = read_only; start = home.applied; ws = []; finished = false;
    begin_at = Sim.now cl.sim }

let read h key =
  if h.finished then invalid_arg "Walter: read on a finished transaction";
  match List.assoc_opt key h.ws with
  | Some v -> v
  | None ->
      let req, ivar = Rpc.Pending.fresh h.home.pending_reads in
      List.iter
        (fun dst -> send h.cl ~src:h.home.id ~dst (Read_req { req; key; start = h.start }))
        (Replication.replicas h.cl.repl key);
      let value, writer =
        if h.cl.config.Sss_kv.Config.fault_tolerance then
          match
            Rpc.Pending.await_timeout h.cl.sim ivar
              ~timeout:h.cl.config.Sss_kv.Config.ack_timeout
          with
          | Some r -> r
          | None ->
              Rpc.stalled ~system:"walter" ~phase:"read"
                (Printf.sprintf "key %d in %s" key (Ids.txn_to_string h.id))
        else Rpc.Pending.await h.cl.sim ivar
      in
      record h.cl (History.Read { txn = h.id; key; writer });
      value

let write h key value =
  if h.finished then invalid_arg "Walter: write on a finished transaction";
  if h.ro then invalid_arg "Walter: write in a read-only transaction";
  h.ws <- (key, value) :: List.remove_assoc key h.ws

(* Commit at the home site: bump the site sequence, apply locally (which
   also numbers versions for keys whose primary is the home), answer the
   client, and propagate asynchronously. *)
let commit_at_home h =
  let cl = h.cl in
  (* the fiber may have suspended (locks, votes) since the handle was
     made: a stale record must not write to the shared log *)
  if cl.config.Sss_kv.Config.durability && not (node_live cl h.home) then
    Rpc.crashed ~system:"walter" ~node:h.home.id;
  h.home.site_seq <- h.home.site_seq + 1;
  let seq = h.home.site_seq in
  if cl.config.Sss_kv.Config.durability then begin
    (* Durable decision point: bookkeeping and the log record in one
       event; the local apply, the client answer and the Propagate
       fan-out all wait for the flush.  While it is in flight the home
       answers Query with Vundecided (the [committed] entry is [false]),
       so a participant cannot presume abort during the window. *)
    Hashtbl.replace h.home.origin_log seq (h.id, h.start, h.ws);
    Hashtbl.replace h.home.committed h.id false;
    let flush_began = Sim.now cl.sim in
    let lsn = log h.home (WCommit { txn = h.id; seq; start = h.start; writes = h.ws }) in
    if (not (log_sync h.home lsn)) || not (node_live cl h.home) then
      Rpc.crashed ~system:"walter" ~node:h.home.id;
    Hashtbl.replace h.home.committed h.id true;
    match cl.obs with
    | Some o -> Obs.commit_durable o ~since:flush_began
    | None -> ()
  end;
  apply_committed cl h.home ~txn:h.id ~site:h.home.id ~seq ~start:h.start ~writes:h.ws;
  record cl (History.Commit { txn = h.id; ws = List.map fst h.ws });
  (match cl.obs with
  | Some o -> Obs.txn_commit o h.id ~node:h.home.id ~ro:false ~began:h.begin_at
  | None -> ());
  for dst = 0 to cl.config.Sss_kv.Config.nodes - 1 do
    if dst <> h.home.id then
      send cl ~src:h.home.id ~dst
        (Propagate { txn = h.id; site = h.home.id; seq; start = h.start; writes = h.ws })
  done;
  true

let commit h =
  if h.finished then invalid_arg "Walter: commit on a finished transaction";
  h.finished <- true;
  let cl = h.cl in
  if h.ws = [] then begin
    (* read-only (or write-free): purely local, never aborts *)
    record cl (History.Commit { txn = h.id; ws = [] });
    (match cl.obs with
    | Some o -> Obs.txn_commit o h.id ~node:h.home.id ~ro:h.ro ~began:h.begin_at
    | None -> ());
    true
  end
  else begin
    (* group written keys by preferred site *)
    let by_primary = Hashtbl.create 4 in
    List.iter
      (fun (k, _) ->
        let p = primary cl k in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_primary p) in
        Hashtbl.replace by_primary p (k :: prev))
      h.ws;
    (* sorted by site id: prepare-message send order must not depend on
       Hashtbl bucket order *)
    let sites =
      (Hashtbl.fold (fun s ks acc -> (s, ks) :: acc) by_primary [] [@order_ok])
      |> List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2)
    in
    match sites with
    | [ (s, ks) ] when s = h.home.id ->
        (* fast path: all preferred sites local *)
        if
          Locks.acquire_all h.home.locks h.id ~exclusive:ks ~shared:[]
            ~timeout:cl.config.Sss_kv.Config.lock_timeout
          && List.for_all (fun k -> ww_ok h.home k ~start:h.start) ks
        then commit_at_home h  (* locks released when the local apply runs *)
        else begin
          Locks.release_txn h.home.locks h.id;
          record cl (History.Abort { txn = h.id });
          (match cl.obs with
          | Some o -> Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Obs.Conflict
          | None -> ());
          false
        end
    | _ ->
        (* slow path: conflict-check at each preferred site *)
        let sites = List.sort (fun (a, _) (b, _) -> Int.compare a b) sites in
        let box =
          { expect = List.length sites; votes = 0; any_false = false;
            vchanged = Sim.Cond.create () }
        in
        Hashtbl.replace h.home.vote_boxes h.id box;
        List.iter
          (fun (s, ks) ->
            send cl ~src:h.home.id ~dst:s
              (Wprepare { txn = h.id; coord = h.home.id; start = h.start; keys = ks }))
          sites;
        let complete () = box.any_false || box.votes >= box.expect in
        let _ =
          Sim.Cond.await_timeout cl.sim box.vchanged
            ~timeout:cl.config.Sss_kv.Config.vote_timeout complete
        in
        Hashtbl.remove h.home.vote_boxes h.id;
        let all_ok = (not box.any_false) && box.votes >= box.expect in
        List.iter
          (fun (s, _) -> send cl ~src:h.home.id ~dst:s (Wdecide { txn = h.id; outcome = all_ok }))
          sites;
        if all_ok then commit_at_home h
        else begin
          record cl (History.Abort { txn = h.id });
          (match cl.obs with
          | Some o -> Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Obs.Vote
          | None -> ());
          false
        end
  end

let abort h =
  if h.finished then invalid_arg "Walter: abort on a finished transaction";
  h.finished <- true;
  record h.cl (History.Abort { txn = h.id });
  (match h.cl.obs with
  | Some o -> Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Obs.Client
  | None -> ())

let txn_id h = h.id

let history t = t.history

let obs t = t.obs

let repl t = t.repl

let network t = t.net

(* Resident words of every node's version chains, under the same heap
   model as [Sss_data.Mvstore.mem_words]: hash buckets + binding boxes and
   the chain ref per key, then one list cons + boxed version record + the
   private [wstart] clock array per version, plus the value strings.  Cold
   path (end-of-run gauge); the sum is bucket-order-insensitive. *)
let store_words t =
  let str_words len = 1 + ((len + 8) / 8) in
  Array.fold_left
    (fun acc (n : node) ->
      let st = (Hashtbl.stats n.chains [@order_ok]) in
      (Hashtbl.fold
         (fun _ chain a ->
           List.fold_left
             (fun a (v : version) ->
               a + 3 + 6
               + (Vclock.size v.wstart + 1)
               + str_words (String.length v.value))
             (a + 2) !chain)
         n.chains
         (acc + st.Hashtbl.num_buckets + (4 * st.Hashtbl.num_bindings))
       [@order_ok]))
    0 t.nodes

let quiescent t =
  let problems = ref [] in
  Array.iter
    (fun (n : node) ->
      if Hashtbl.length n.prepared > 0 then
        problems :=
          Printf.sprintf "node %d: %d prepared linger" n.id (Hashtbl.length n.prepared)
          :: !problems;
      if Locks.holder_count n.locks > 0 then
        problems :=
          Printf.sprintf "node %d: %d lock holders" n.id (Locks.holder_count n.locks)
          :: !problems;
      (* report in sorted site order: the text must not depend on bucket order *)
      List.iter
        (fun site ->
          let pending = Hashtbl.find n.holdback site in
          if !pending <> [] then
            problems :=
              Printf.sprintf "node %d: %d held-back propagations from site %d" n.id
                (List.length !pending) site
              :: !problems)
        (List.sort Int.compare
           (Hashtbl.fold (fun s _ acc -> s :: acc) n.holdback [] [@order_ok])))
    t.nodes;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
