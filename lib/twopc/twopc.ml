open Sss_sim
open Sss_data
open Sss_net
open Sss_consistency
module Obs = Sss_obs.Obs

(* Single-version store: value and the writer that produced it (version
   identity, used for validation and by the consistency checker). *)
type cell = { mutable value : string; mutable writer : Ids.txn }

(* What a recovered participant learns about an in-doubt transaction when
   it queries the coordinator (durability mode, docs/DURABILITY.md). *)
type verdict = Vcommitted | Vaborted | Vundecided

type msg =
  | Read_req of { req : int; key : Ids.key }
  | Read_ret of { req : int; value : string; writer : Ids.txn }
  | Prepare of {
      txn : Ids.txn;
      coord : Ids.node;
      rs : (Ids.key * Ids.txn) list;
      ws : (Ids.key * string) list;
    }
  | Vote of { txn : Ids.txn; ok : bool }
  | Decide of { txn : Ids.txn; outcome : bool }
  | Applied of { txn : Ids.txn }
  | Query of { req : int; txn : Ids.txn }
  | Outcome of { req : int; verdict : verdict }
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

let rec priority = function
  | Decide _ -> 40
  | Vote _ | Applied _ | Query _ | Outcome _ -> 60
  | Read_req _ | Read_ret _ | Prepare _ -> 100
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
    "applied";
    "query";
    "outcome";
    "delivered";
  ]

let rec kind_id = function
  | Read_req _ -> 0
  | Read_ret _ -> 1
  | Prepare _ -> 2
  | Vote _ -> 3
  | Decide _ -> 4
  | Applied _ -> 5
  | Query _ -> 6
  | Outcome _ -> 7
  | Delivered _ -> 8
  | Tracked { inner; _ } -> kind_id inner

let message_kind m = List.nth kind_names (kind_id m)

type prep = {
  rs_local : (Ids.key * Ids.txn) list;
  ws_local : (Ids.key * string) list;
  coord : Ids.node;
}

type vote_box = {
  expect : int;
  mutable votes : int;
  mutable any_false : bool;
  vchanged : Sim.Cond.t;
}

type ack_box = { ack_expect : int; mutable ack_count : int; ack_done : unit Sim.Ivar.t }

(* Durability-mode write-ahead-log records (docs/DURABILITY.md).  Each is
   appended in the same DES event as the volatile mutation it describes;
   externally-visible actions await the flush. *)
type logrec =
  | PPrepared of { txn : Ids.txn; prep : prep }  (* participant voted yes *)
  | PAborted of { txn : Ids.txn }  (* participant saw Decide(false) *)
  | PDecided of { txn : Ids.txn }  (* coordinator decided commit *)
  | PApplied of { txn : Ids.txn }  (* participant applied the write set *)

(* Checkpoint image: a deep copy of everything redo recovery rebuilds,
   in deterministic (sorted) order. *)
type snap = {
  s_cells : (Ids.key * string * Ids.txn) list;
  s_prepared : (Ids.txn * prep) list;
  s_decided : Ids.txn list;  (* durably decided commits (coordinator role) *)
  s_aborted : Ids.txn list;  (* aborted_decides *)
}

type node = {
  id : Ids.node;
  store : (Ids.key, cell) Hashtbl.t;
  locks : Locks.t;
  prepared : (Ids.txn, prep) Hashtbl.t;
  aborted_decides : (Ids.txn, unit) Hashtbl.t;
  gen : Ids.Gen.t;
  pending_reads : (string * Ids.txn) Rpc.Pending.t;
  vote_boxes : (Ids.txn, vote_box) Hashtbl.t;
  ack_boxes : (Ids.txn, ack_box) Hashtbl.t;
  (* durability mode only *)
  mutable alive : bool;  (* false between a crash and the end of recovery *)
  decided : (Ids.txn, bool) Hashtbl.t;
      (* coordinator commit decisions; [true] once the PDecided record is
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
  mutable rs : (Ids.key * Ids.txn) list;
  mutable ws : (Ids.key * string) list;
  mutable finished : bool;
  begin_at : float;
}

let record t event = History.record t.history ~at:(Sim.now t.sim) event

let replica_nodes t keys =
  List.sort_uniq Int.compare (List.concat_map (fun k -> Replication.replicas t.repl k) keys)

let is_primary t node_id key =
  match Replication.replicas t.repl key with first :: _ -> first = node_id | [] -> false

let send t ~src ~dst payload =
  let prio = priority payload in
  if t.config.Sss_kv.Config.fault_tolerance then
    Reliable.send t.rel ~prio ~src ~dst (fun token -> Tracked { token; inner = payload })
  else Network.send t.net ~prio ~src ~dst payload

let cell (node : node) key =
  match Hashtbl.find_opt node.store key with
  | Some c -> c
  | None -> invalid_arg "Twopc: unknown key"

let validate node rs =
  List.for_all
    (fun (k, observed) -> Ids.equal_txn (cell node k).writer observed)
    rs

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let prep_bytes (p : prep) =
  8 (* coord *)
  + List.fold_left (fun acc (_, _) -> acc + 12) 0 p.rs_local
  + List.fold_left (fun acc (_, v) -> acc + 4 + String.length v) 0 p.ws_local

let logrec_bytes = function
  | PPrepared { prep; _ } -> 16 + 8 + prep_bytes prep
  | PAborted _ | PDecided _ | PApplied _ -> 16 + 8

let snap_bytes (s : snap) =
  64
  + List.fold_left (fun acc (_, v, _) -> acc + 12 + String.length v) 0 s.s_cells
  + List.fold_left (fun acc (_, p) -> acc + 8 + prep_bytes p) 0 s.s_prepared
  + (8 * List.length s.s_decided)
  + (8 * List.length s.s_aborted)

let sorted_bindings table =
  List.sort
    (fun (a, _) (b, _) -> Ids.compare_txn a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] [@order_ok])

let snap_of (node : node) =
  {
    s_cells =
      List.sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (Hashtbl.fold (fun k (c : cell) acc -> (k, c.value, c.writer) :: acc)
           node.store [] [@order_ok]);
    s_prepared = sorted_bindings node.prepared;
    s_decided =
      List.sort Ids.compare_txn
        (Hashtbl.fold
           (fun txn durable acc -> if durable then txn :: acc else acc)
           node.decided [] [@order_ok]);
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

(* Is the client handle's home record still the live one?  A crash under
   durability replaces the record, so stale handles observe it here. *)
let home_live (cl : cluster) (node : node) = cl.nodes.(node.id) == node

let handle_decide t (node : node) ~txn ~outcome =
  match Hashtbl.find_opt node.prepared txn with
  | None -> if not outcome then Hashtbl.replace node.aborted_decides txn ()
  | Some prep ->
      Hashtbl.remove node.prepared txn;
      if outcome then begin
        List.iter
          (fun (k, v) ->
            let c = cell node k in
            c.value <- v;
            c.writer <- txn;
            if is_primary t node.id k then record t (History.Install { txn; key = k }))
          prep.ws_local;
        (* the apply and its log record are made in the same DES event *)
        let lsn = log node (PApplied { txn }) in
        Locks.release_txn node.locks txn;
        (* the coordinator (and through it the client) may only learn of
           the apply once it would survive a crash here *)
        if log_sync node lsn then send t ~src:node.id ~dst:prep.coord (Applied { txn })
      end
      else begin
        (* presumed abort: the record spares recovery a query, but nothing
           externally visible depends on it — no flush wait *)
        ignore (log node (PAborted { txn }) : int option);
        Locks.release_txn node.locks txn
      end

(* Termination protocol for a prepared transaction whose outcome this
   participant does not know — because the participant restarted with the
   prepare on disk, or because the coordinator crashed before deciding.
   Ask the coordinator until the verdict is known. *)
let resolve_indoubt t (node : node) txn (prep : prep) =
  let rec loop attempt =
    if t.nodes.(node.id) == node && Hashtbl.mem node.prepared txn then
      if attempt >= t.config.Sss_kv.Config.retry_limit then
        Rpc.stalled ~system:"2pc" ~phase:"in-doubt" (Ids.txn_to_string txn)
      else begin
        let req, slot = Rpc.Pending.fresh node.pending_outcomes in
        send t ~src:node.id ~dst:prep.coord (Query { req; txn });
        match
          Rpc.Pending.await_timeout t.sim slot ~timeout:t.config.Sss_kv.Config.retry_max
        with
        | Some Vcommitted -> handle_decide t node ~txn ~outcome:true
        | Some Vaborted -> handle_decide t node ~txn ~outcome:false
        | Some Vundecided | None ->
            Rpc.Pending.forget node.pending_outcomes req;
            Sim.sleep t.sim t.config.Sss_kv.Config.retry_initial;
            loop (attempt + 1)
      end
  in
  try loop 0 with Rpc.Crashed _ -> ()

let handle_prepare t (node : node) ~txn ~coord ~rs ~ws =
  let local_rs = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) rs in
  let local_ws = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) ws in
  let ok =
    (not (Hashtbl.mem node.aborted_decides txn))
    && Locks.acquire_all node.locks txn
         ~exclusive:(List.map fst local_ws)
         ~shared:(List.map fst local_rs)
         ~timeout:t.config.Sss_kv.Config.lock_timeout
    && validate node local_rs
    && not (Hashtbl.mem node.aborted_decides txn)
  in
  if not ok then begin
    Locks.release_txn node.locks txn;
    send t ~src:node.id ~dst:coord (Vote { txn; ok = false })
  end
  else begin
    let prep = { rs_local = local_rs; ws_local = local_ws; coord } in
    Hashtbl.replace node.prepared txn prep;
    (* force the prepare record before promising "yes": after a crash this
       node must still be able to honour a commit decision *)
    let lsn = log node (PPrepared { txn; prep }) in
    (* a yes-voter may be orphaned by a coordinator crash: if the decision
       is still unknown after a couple of retry rounds, go ask for it *)
    if t.config.Sss_kv.Config.durability then
      Sim.spawn t.sim (fun () ->
          Sim.sleep t.sim (2. *. t.config.Sss_kv.Config.retry_max);
          resolve_indoubt t node txn prep);
    if log_sync node lsn then send t ~src:node.id ~dst:coord (Vote { txn; ok = true })
  end

let rec dispatch t (node : node) ~src payload =
  match payload with
  | Tracked { token; inner } ->
      Network.send t.net ~prio:(priority (Delivered { token })) ~src:node.id ~dst:src
        (Delivered { token });
      if Reliable.receive t.rel token then dispatch t node ~src inner
  | Delivered { token } -> Reliable.delivered t.rel token
  | Read_req { req; key } ->
      let c = cell node key in
      send t ~src:node.id ~dst:src (Read_ret { req; value = c.value; writer = c.writer })
  | Read_ret { req; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_reads req (value, writer)
  | Prepare { txn; coord; rs; ws } -> handle_prepare t node ~txn ~coord ~rs ~ws
  | Vote { txn; ok } -> (
      match Hashtbl.find_opt node.vote_boxes txn with
      | Some box ->
          box.votes <- box.votes + 1;
          if not ok then box.any_false <- true;
          Sim.Cond.broadcast t.sim box.vchanged
      | None -> ())
  | Decide { txn; outcome } -> handle_decide t node ~txn ~outcome
  | Applied { txn } -> (
      match Hashtbl.find_opt node.ack_boxes txn with
      | Some box ->
          box.ack_count <- box.ack_count + 1;
          if box.ack_count = box.ack_expect && not (Sim.Ivar.is_filled box.ack_done) then
            Sim.Ivar.fill t.sim box.ack_done ()
      | None -> ())
  | Query { req; txn } ->
      (* a recovered participant resolving an in-doubt transaction.
         "Committed" may only be answered once the decision record is
         durable; an in-flight decision reads as undecided; everything
         else is presumed aborted. *)
      let verdict =
        match Hashtbl.find_opt node.decided txn with
        | Some true -> Vcommitted
        | Some false -> Vundecided
        | None -> if Hashtbl.mem node.vote_boxes txn then Vundecided else Vaborted
      in
      send t ~src:node.id ~dst:src (Outcome { req; verdict })
  | Outcome { req; verdict } -> Rpc.Pending.resolve t.sim node.pending_outcomes req verdict

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
          store = Hashtbl.create 256;
          locks = Locks.create sim;
          prepared = Hashtbl.create 64;
          aborted_decides = Hashtbl.create 64;
          gen = Ids.Gen.create id;
          pending_reads = Rpc.Pending.create ();
          vote_boxes = Hashtbl.create 64;
          ack_boxes = Hashtbl.create 64;
          alive = true;
          decided = Hashtbl.create 64;
          pending_outcomes = Rpc.Pending.create ();
          wal = None;
        })
  in
  Array.iter
    (fun node ->
      Array.iter
        (fun k ->
          Hashtbl.replace node.store k
            { value = Ids.boot_value k; writer = Ids.genesis })
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
          Sss_storage.Storage.create sim dev ~record_bytes:logrec_bytes
            ~snapshot:(fun () -> snap_of t.nodes.(n.id))
            ~snapshot_bytes:snap_bytes ?obs:t.obs ()
        in
        n.wal <- Some w;
        Sss_storage.Storage.start_checkpoints w ~interval:config.checkpoint_interval)
      nodes;
  t

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap (node : node) (s : snap) =
  List.iter
    (fun (k, v, w) ->
      let c = cell node k in
      c.value <- v;
      c.writer <- w)
    s.s_cells;
  List.iter (fun (txn, p) -> Hashtbl.replace node.prepared txn p) s.s_prepared;
  List.iter (fun txn -> Hashtbl.replace node.decided txn true) s.s_decided;
  List.iter (fun txn -> Hashtbl.replace node.aborted_decides txn ()) s.s_aborted

(* Redo one durable record.  Replay never records history: installs of
   already-applied writes were recorded before the crash, and in-doubt
   transactions go through the normal decide path afterwards. *)
let replay_record (node : node) = function
  | PPrepared { txn; prep } -> Hashtbl.replace node.prepared txn prep
  | PAborted { txn } ->
      Hashtbl.remove node.prepared txn;
      Hashtbl.replace node.aborted_decides txn ()
  | PDecided { txn } -> Hashtbl.replace node.decided txn true
  | PApplied { txn } -> (
      match Hashtbl.find_opt node.prepared txn with
      | None -> ()
      | Some prep ->
          Hashtbl.remove node.prepared txn;
          List.iter
            (fun (k, v) ->
              let c = cell node k in
              c.value <- v;
              c.writer <- txn)
            prep.ws_local)

let crash_node t id =
  if t.config.Sss_kv.Config.durability then begin
    let old = t.nodes.(id) in
    old.alive <- false;
    (match old.wal with Some w -> Sss_storage.Storage.crash w | None -> ());
    let e = Rpc.Crashed { system = "2pc"; node = id } in
    Rpc.Pending.poison_all t.sim old.pending_reads e;
    Rpc.Pending.poison_all t.sim old.pending_outcomes e;
    (* wake commit fibers parked on apply acks; they observe the record
       swap and raise *)
    List.iter
      (fun (_, (b : ack_box)) ->
        if not (Sim.Ivar.is_filled b.ack_done) then Sim.Ivar.fill t.sim b.ack_done ())
      (sorted_bindings old.ack_boxes);
    let fresh =
      {
        id;
        store = Hashtbl.create 256;
        locks = Locks.create t.sim;
        prepared = Hashtbl.create 64;
        aborted_decides = Hashtbl.create 64;
        (* transaction ids name client requests, not node state: the
           counter persists so a restarted node never re-mints an id *)
        gen = old.gen;
        pending_reads = Rpc.Pending.create ();
        vote_boxes = Hashtbl.create 64;
        ack_boxes = Hashtbl.create 64;
        alive = false;
        decided = Hashtbl.create 64;
        pending_outcomes = Rpc.Pending.create ();
        wal = old.wal;
      }
    in
    Array.iter
      (fun k ->
        Hashtbl.replace fresh.store k
          { value = Ids.boot_value k; writer = Ids.genesis })
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
              let indoubt = sorted_bindings node.prepared in
              (* in-doubt transactions held their locks when the node went
                 down; restore them before admitting new prepares.  The
                 set is mutually compatible, so acquisition is immediate. *)
              List.iter
                (fun (txn, (p : prep)) ->
                  ignore
                    (Locks.acquire_all node.locks txn
                       ~exclusive:(List.map fst p.ws_local)
                       ~shared:(List.map fst p.rs_local)
                       ~timeout:t.config.Sss_kv.Config.lock_timeout
                      : bool))
                indoubt;
              node.alive <- true;
              Network.recover t.net id;
              Sss_storage.Storage.start_checkpoints w
                ~interval:t.config.Sss_kv.Config.checkpoint_interval;
              List.iter
                (fun (txn, p) ->
                  Sim.spawn t.sim (fun () -> resolve_indoubt t node txn p))
                indoubt))

let begin_txn cl ~node ~read_only =
  let home = cl.nodes.(node) in
  if not home.alive then Rpc.crashed ~system:"2pc" ~node;
  let id = Ids.Gen.next home.gen in
  record cl (History.Begin { txn = id; ro = read_only; node });
  (match cl.obs with Some o -> Obs.txn_begin o id ~node ~ro:read_only | None -> ());
  { cl; home; id; ro = read_only; rs = []; ws = []; finished = false;
    begin_at = Sim.now cl.sim }

let read h key =
  if h.finished then invalid_arg "Twopc: read on a finished transaction";
  match List.assoc_opt key h.ws with
  | Some v -> v
  | None ->
      let req, ivar = Rpc.Pending.fresh h.home.pending_reads in
      List.iter
        (fun dst -> send h.cl ~src:h.home.id ~dst (Read_req { req; key }))
        (Replication.replicas h.cl.repl key);
      let value, writer =
        if h.cl.config.Sss_kv.Config.fault_tolerance then
          match
            Rpc.Pending.await_timeout h.cl.sim ivar
              ~timeout:h.cl.config.Sss_kv.Config.ack_timeout
          with
          | Some r -> r
          | None ->
              Rpc.stalled ~system:"2pc" ~phase:"read"
                (Printf.sprintf "key %d in %s" key (Ids.txn_to_string h.id))
        else Rpc.Pending.await h.cl.sim ivar
      in
      let pair = (key, writer) in
      if not (List.mem pair h.rs) then h.rs <- pair :: h.rs;
      record h.cl (History.Read { txn = h.id; key; writer });
      value

let write h key value =
  if h.finished then invalid_arg "Twopc: write on a finished transaction";
  if h.ro then invalid_arg "Twopc: write in a read-only transaction";
  h.ws <- (key, value) :: List.remove_assoc key h.ws

let commit h =
  if h.finished then invalid_arg "Twopc: commit on a finished transaction";
  h.finished <- true;
  let cl = h.cl in
  let keys = List.map fst h.rs @ List.map fst h.ws in
  if keys = [] then begin
    record cl (History.Commit { txn = h.id; ws = [] });
    (match cl.obs with
    | Some o -> Obs.txn_commit o h.id ~node:h.home.id ~ro:h.ro ~began:h.begin_at
    | None -> ());
    true
  end
  else begin
    let participants = List.sort_uniq Int.compare (h.home.id :: replica_nodes cl keys) in
    let box =
      { expect = List.length participants; votes = 0; any_false = false;
        vchanged = Sim.Cond.create () }
    in
    Hashtbl.replace h.home.vote_boxes h.id box;
    List.iter
      (fun dst ->
        send cl ~src:h.home.id ~dst (Prepare { txn = h.id; coord = h.home.id; rs = h.rs; ws = h.ws }))
      participants;
    let complete () = box.any_false || box.votes >= box.expect in
    let _ =
      Sim.Cond.await_timeout cl.sim box.vchanged
        ~timeout:cl.config.Sss_kv.Config.vote_timeout complete
    in
    Hashtbl.remove h.home.vote_boxes h.id;
    let all_ok = (not box.any_false) && box.votes >= box.expect in
    (* A crashed home can still abort (nothing was promised), so the
       Decide(false) fan-out below runs either way and frees the
       participants; only the commit path dies with the node. *)
    if all_ok && not (home_live cl h.home) then
      Rpc.crashed ~system:"2pc" ~node:h.home.id;
    if not all_ok then begin
      List.iter
        (fun dst -> send cl ~src:h.home.id ~dst (Decide { txn = h.id; outcome = false }))
        participants;
      record cl (History.Abort { txn = h.id });
      (match cl.obs with
      | Some o -> Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Obs.Vote
      | None -> ());
      false
    end
    else begin
      (* Durable decision point: the commit verdict must reach the log
         before any Decide(true) leaves the node.  While the flush is in
         flight the coordinator answers Query with Vundecided (the
         [decided] entry is [false]), so a recovering participant cannot
         presume abort during the window. *)
      if cl.config.Sss_kv.Config.durability then begin
        Hashtbl.replace h.home.decided h.id false;
        let flush_began = Sim.now cl.sim in
        let lsn = log h.home (PDecided { txn = h.id }) in
        if not (log_sync h.home lsn) || not (home_live cl h.home) then
          Rpc.crashed ~system:"2pc" ~node:h.home.id;
        Hashtbl.replace h.home.decided h.id true;
        match cl.obs with
        | Some o -> Obs.commit_durable o ~since:flush_began
        | None -> ()
      end;
      let write_nodes = replica_nodes cl (List.map fst h.ws) in
      let ack =
        { ack_expect = List.length write_nodes; ack_count = 0; ack_done = Sim.Ivar.create () }
      in
      if write_nodes <> [] then Hashtbl.replace h.home.ack_boxes h.id ack;
      List.iter
        (fun dst -> send cl ~src:h.home.id ~dst (Decide { txn = h.id; outcome = true }))
        participants;
      (* The client is informed once every write replica applied: later
         transactions beginning after this response always see the data. *)
      if write_nodes <> [] then begin
        (match
           Sim.Ivar.read_timeout cl.sim ack.ack_done
             ~timeout:cl.config.Sss_kv.Config.ack_timeout
         with
        | Some () -> ()
        | None -> Rpc.stalled ~system:"2pc" ~phase:"apply ack" (Ids.txn_to_string h.id));
        Hashtbl.remove h.home.ack_boxes h.id;
        if not (home_live cl h.home) then Rpc.crashed ~system:"2pc" ~node:h.home.id
      end;
      record cl (History.Commit { txn = h.id; ws = List.map fst h.ws });
      (match cl.obs with
      | Some o -> Obs.txn_commit o h.id ~node:h.home.id ~ro:h.ro ~began:h.begin_at
      | None -> ());
      true
    end
  end

let abort h =
  if h.finished then invalid_arg "Twopc: abort on a finished transaction";
  h.finished <- true;
  record h.cl (History.Abort { txn = h.id });
  (match h.cl.obs with
  | Some o -> Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Obs.Client
  | None -> ())

let txn_id h = h.id

let history t = t.history

let obs t = t.obs

let local_keys t n = Replication.keys_at t.repl n

let network t = t.net

(* Resident words of every node's store, under the same heap model as
   [Sss_data.Mvstore.mem_words]: hash buckets + binding boxes, one cell
   record per key, and the boxed value strings (headers included).  Cold
   path (end-of-run gauge); the sum is bucket-order-insensitive. *)
let store_words t =
  let str_words len = 1 + ((len + 8) / 8) in
  Array.fold_left
    (fun acc (n : node) ->
      let st = (Hashtbl.stats n.store [@order_ok]) in
      (Hashtbl.fold
         (fun _ (c : cell) a -> a + 4 + str_words (String.length c.value))
         n.store
         (acc + st.Hashtbl.num_buckets + (4 * st.Hashtbl.num_bindings))
       [@order_ok]))
    0 t.nodes

let quiescent t =
  let problems = ref [] in
  Array.iter
    (fun (n : node) ->
      if Hashtbl.length n.prepared > 0 then
        problems := Printf.sprintf "node %d: %d prepared linger" n.id (Hashtbl.length n.prepared) :: !problems;
      if Locks.holder_count n.locks > 0 then
        problems := Printf.sprintf "node %d: %d lock holders" n.id (Locks.holder_count n.locks) :: !problems)
    t.nodes;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
