(** Coordinator-side transaction execution: read operations (Alg. 5),
    write buffering, and the commit protocol (Alg. 1) including the wait
    for external commit. *)

open Sss_sim
open Sss_data
open Sss_consistency
open State

type handle = {
  cl : State.t;
  home : State.node;
  id : Ids.txn;
  ro : bool;
  mutable vc : Vclock.t;
  has_read : bool array;
  mutable started : bool;  (* has issued its first read *)
  mutable rs : (Ids.key * Ids.txn) list;  (* key with the observed version's writer *)
  mutable ws : (Ids.key * string) list;
  mutable prop_set : (Ids.txn * int) list;
  (* parked writers whose versions this update transaction read; the client
     response is chained behind their external commits *)
  mutable observed_parked : (Ids.txn * Ids.node) list;
  mutable finished : bool;
  begin_at : float;
}

let begin_txn cl ~node:home_id ~read_only =
  let home = State.node cl home_id in
  if not home.alive then Sss_net.Rpc.crashed ~system:"sss" ~node:home_id;
  let id = Ids.Gen.next home.gen in
  Hashtbl.replace home.active id ();
  record cl (History.Begin { txn = id; ro = read_only; node = home_id });
  (match cl.obs with
  | Some o -> Sss_obs.Obs.txn_begin o id ~node:home_id ~ro:read_only
  | None -> ());
  (* Hardened mode: read-only transactions start from the externally
     committed (stable) view plus the node's session knowledge, so they
     only ever observe externally committed data; update transactions (and
     paper mode) start from the freshest internally committed view
     (Alg. 5 / §III-A). *)
  let initial_vc (home : State.node) read_only =
    if read_only && cl.config.Config.strict_order then
      Vclock.max home.stable_vc home.coordinated_max
    else Vclock.max (Nlog.most_recent_vc home.nlog) home.coordinated_max
  in
  {
    cl;
    home;
    id;
    ro = read_only;
    vc = initial_vc home read_only;
    has_read = Array.make cl.config.nodes false;
    started = false;
    rs = [];
    ws = [];
    prop_set = [];
    observed_parked = [];
    finished = false;
    begin_at = now cl;
  }

let txn_id h = h.id

let is_read_only h = h.ro

let read h key =
  if h.finished then invalid_arg "Sss_kv: read on a finished transaction";
  match List.assoc_opt key h.ws with
  | Some v -> v  (* read-your-writes from the write buffer (Alg. 5 line 2) *)
  | None ->
      if not h.started then begin
        h.vc <-
          (if h.ro && h.cl.config.Config.strict_order then
             Vclock.max h.home.stable_vc h.home.coordinated_max
           else Vclock.max (Nlog.most_recent_vc h.home.nlog) h.home.coordinated_max);
        h.started <- true;
        (* the bound is now fixed-then-growing, so this is the moment the
           snapshot can pin the GC watermark (registering at begin would be
           wrong: the paper-mode refresh is not entry-wise monotone) *)
        if h.ro then State.gc_register_ro h.cl h.id h.vc
      end;
      let req, ivar = Sss_net.Rpc.Pending.fresh h.home.pending_reads in
      let msg =
        Message.Read_request
          {
            req;
            txn = h.id;
            key;
            vc = h.vc;
            has_read = Array.copy h.has_read;
            is_update = not h.ro;
          }
      in
      send_nodes h.cl ~src:h.home.id
        ~dsts:(Replication.replicas h.cl.repl key)
        msg;
      (* All replicas are contacted; the fastest answer wins (§III-C).  In
         fault-tolerance mode the request and its answer are retried by the
         transport, so the wait only needs the [ack_timeout] backstop; the
         plain read keeps the healthy path free of timeout events. *)
      let resp =
        if h.cl.config.Config.fault_tolerance then
          match
            Sss_net.Rpc.Pending.await_timeout h.cl.sim ivar
              ~timeout:h.cl.config.ack_timeout
          with
          | Some r -> r
          | None ->
              Sss_net.Rpc.stalled ~system:"sss" ~phase:"read"
                (Printf.sprintf "key %d in %s" key (Ids.txn_to_string h.id))
        else Sss_net.Rpc.Pending.await h.cl.sim ivar
      in
      h.has_read.(resp.from) <- true;
      h.vc <- Vclock.max h.vc resp.vc;
      let pair = (key, resp.writer) in
      if not (List.mem pair h.rs) then h.rs <- pair :: h.rs;
      List.iter
        (fun p -> if not (List.mem p h.prop_set) then h.prop_set <- p :: h.prop_set)
        resp.propagated;
      (match resp.parked_coord with
      | Some coord ->
          let entry = (resp.writer, coord) in
          if not (List.mem entry h.observed_parked) then
            h.observed_parked <- entry :: h.observed_parked
      | None -> ());
      record h.cl (History.Read { txn = h.id; key; writer = resp.writer });
      resp.value

let write h key value =
  if h.finished then invalid_arg "Sss_kv: write on a finished transaction";
  if h.ro then invalid_arg "Sss_kv: write in a read-only transaction";
  h.ws <- (key, value) :: List.remove_assoc key h.ws

let read_keys h = List.sort_uniq Int.compare (List.map fst h.rs)

(* Chain this transaction's client response behind the external commits of
   the parked writers it read from (wr-order external consistency: a reader
   of X must not complete before X does).  The wait relation follows strict
   commit-clock domination, so it is deadlock-free. *)
let await_observed_parked h =
  let cl = h.cl in
  if not cl.config.Config.strict_order then ()
  else
  let slots =
    List.map
      (fun (writer, coord) ->
        let req, ivar = Sss_net.Rpc.Pending.fresh h.home.pending_finalized in
        send cl ~src:h.home.id ~dst:coord (Message.Wait_finalized { writer; req });
        ivar)
      h.observed_parked
  in
  List.iter
    (fun ivar ->
      match Sss_net.Rpc.Pending.await_timeout cl.sim ivar ~timeout:cl.config.ack_timeout with
      | Some () -> ()
      | None ->
          Sss_net.Rpc.stalled ~system:"sss" ~phase:"wait-finalized" (Ids.txn_to_string h.id))
    slots

(* Completion waits under durability retry their message: the transport's
   receipt can outrun the processing fiber a crash kills, so "delivered" is
   not "acted on" — a recovered participant holds no trace of the Decide or
   Finalize it receipted.  Re-send to the nodes whose ack is missing every
   few retry periods; the handlers are idempotent.  Without durability the
   single-timeout wait is kept bit-for-bit (no extra timer events). *)
let await_acks cl (h : handle) box ~dsts ~msg ~phase =
  if cl.config.Config.durability then begin
    let slice = 4. *. cl.config.Config.retry_max in
    let deadline = now cl +. cl.config.Config.ack_timeout in
    let rec wait () =
      match Sim.Ivar.read_timeout cl.sim box.ack_done ~timeout:slice with
      | Some () -> ()
      | None ->
          (* a crash of the home node fills the ivar; reaching here means
             the home survives but some participant has not answered *)
          if not (node_live cl h.home) then
            Sss_net.Rpc.crashed ~system:"sss" ~node:h.home.id;
          if now cl >= deadline then
            Sss_net.Rpc.stalled ~system:"sss" ~phase (Ids.txn_to_string h.id);
          List.iter
            (fun dst ->
              if not (Hashtbl.mem box.acked dst) then send cl ~src:h.home.id ~dst msg)
            (List.filter (fun d -> not (Hashtbl.mem box.acked d)) dsts [@order_ok]);
          wait ()
    in
    wait ()
  end
  else
    match Sim.Ivar.read_timeout cl.sim box.ack_done ~timeout:cl.config.ack_timeout with
    | Some () -> ()
    | None -> Sss_net.Rpc.stalled ~system:"sss" ~phase (Ids.txn_to_string h.id)

(* Read-only (and write-free) commit: the client is informed immediately;
   the Remove message then clears this transaction's snapshot-queue entries
   on every replica it read (Alg. 1 lines 2-8). *)
let commit_read_only h =
  let cl = h.cl in
  (* A write-free update transaction may have read a parked writer's data
     (read-only transactions never do): its response chains as well. *)
  if h.observed_parked <> [] then await_observed_parked h;
  h.home.coordinated_max <- Vclock.max h.home.coordinated_max h.vc;
  record cl (History.Commit { txn = h.id; ws = [] });
  if h.ro then cl.stats.committed_ro <- cl.stats.committed_ro + 1
  else cl.stats.committed_update <- cl.stats.committed_update + 1;
  (match cl.obs with
  | Some o -> Sss_obs.Obs.txn_commit o h.id ~node:h.home.id ~ro:h.ro ~began:h.begin_at
  | None -> ());
  let keys = read_keys h in
  if keys <> [] then
    send_nodes cl ~src:h.home.id ~dsts:(replica_nodes cl keys) (Message.Remove { txn = h.id });
  true

let mark_finalized h =
  match Hashtbl.find_opt h.home.unfinalized h.id with
  | None -> ()
  | Some waiters ->
      Hashtbl.remove h.home.unfinalized h.id;
      List.iter (fun reply -> reply ()) !waiters

let commit_update h =
  let cl = h.cl in
  Hashtbl.replace h.home.unfinalized h.id (ref []);
  let rs_keys = read_keys h in
  let ws_keys = List.map fst h.ws in
  let participants =
    List.sort_uniq Int.compare (h.home.id :: replica_nodes cl (rs_keys @ ws_keys))
  in
  let box =
    { expect = List.length participants; votes = []; any_false = false;
      vchanged = Sim.Cond.create () }
  in
  Hashtbl.replace h.home.vote_boxes h.id box;
  (* Readers whose Remove already chased this transaction must not be
     re-propagated into snapshot-queues. *)
  let cancelled = take_cancelled h.home h.id in
  let prop =
    List.filter (fun (r, _) -> not (List.exists (Ids.equal_txn r) cancelled)) h.prop_set
  in
  remember_ws cl h.home h.id ws_keys;
  send_nodes cl ~src:h.home.id ~dsts:participants
    (Message.Prepare
       { txn = h.id; coord = h.home.id; vc = h.vc; rs = h.rs; ws = h.ws; propagated = prop });
  let complete () = box.any_false || List.length box.votes >= box.expect in
  let _ = Sim.Cond.await_timeout cl.sim box.vchanged ~timeout:cl.config.vote_timeout complete in
  Hashtbl.remove h.home.vote_boxes h.id;
  let all_ok = (not box.any_false) && List.length box.votes >= box.expect in
  if not all_ok then begin
    send_nodes cl ~src:h.home.id ~dsts:participants
      (Message.Decide { txn = h.id; vc = h.vc; outcome = false });
    mark_finalized h;
    cl.stats.aborted <- cl.stats.aborted + 1;
    record cl (History.Abort { txn = h.id });
    (match cl.obs with
    | Some o ->
        Sss_obs.Obs.txn_abort o h.id ~node:h.home.id ~ro:false
          (if box.any_false then Sss_obs.Obs.Vote_false else Sss_obs.Obs.Vote_timeout)
    | None -> ());
    false
  end
  else begin
    (* The vote wait suspended: the home node may have crashed under it, in
       which case this fiber holds a stale record and must not decide. *)
    if not (node_live cl h.home) then Sss_net.Rpc.crashed ~system:"sss" ~node:h.home.id;
    (* Alg. 1 lines 18-24: entry-wise maximum of the votes, then equalise
       the write replicas' entries so every CommitQ orders this transaction
       identically. *)
    (* The merge works on a private copy so each vote folds in place
       instead of allocating a fresh clock per vote; [commit_vc] is only
       published (in the Decide message) after the last mutation. *)
    let commit_vc = Vclock.copy h.vc in
    List.iter (fun (_, vvc) -> (Vclock.max_into commit_vc vvc [@owned])) box.votes;
    let write_nodes = replica_nodes cl ws_keys in
    let max_entry =
      List.fold_left (fun acc w -> Stdlib.max acc (Vclock.get commit_vc w)) 0 write_nodes
    in
    (* Mint a fresh, globally unique xactVN (Alg. 1 line 21 computes a
       maximum; we additionally guarantee uniqueness, see State.mint). *)
    let xact_vn = mint_xact_vn cl h.home ~at_least:max_entry in
    List.iter (fun w -> (Vclock.set_into commit_vc w xact_vn [@owned])) write_nodes;
    (* Durable decision point: the commit clock is logged and flushed
       before any participant can learn the outcome.  Until the flush
       completes, an in-doubt Dquery is answered "undecided" — a decision
       that could still be lost with this node must not leak. *)
    if cl.config.Config.durability then begin
      Hashtbl.replace h.home.decided_commits h.id
        { dvc = commit_vc; ddurable = false; ddriving = true; d_at = now cl };
      sweep_decided cl h.home;
      let flush_from = now cl in
      let lsn = log h.home (SDecided { d_txn = h.id; d_vc = commit_vc }) in
      if (not (log_sync h.home lsn)) || not (node_live cl h.home) then
        Sss_net.Rpc.crashed ~system:"sss" ~node:h.home.id;
      (Hashtbl.find h.home.decided_commits h.id).ddurable <- true;
      match cl.obs with
      | Some o -> Sss_obs.Obs.commit_durable o ~since:flush_from
      | None -> ()
    end;
    let ack =
      {
        ack_expect = List.length write_nodes;
        acked = Hashtbl.create 8;
        ack_phase = `Acks;
        ack_done = Sim.Ivar.create ();
      }
    in
    Hashtbl.replace h.home.ack_boxes h.id ack;
    let decide_at = now cl in
    send_nodes cl ~src:h.home.id ~dsts:participants
      (Message.Decide { txn = h.id; vc = commit_vc; outcome = true });
    await_acks cl h ack ~dsts:write_nodes
      ~msg:(Message.Decide { txn = h.id; vc = commit_vc; outcome = true })
      ~phase:"external-commit ack";
    (* a crash fills the ivar to wake this fiber; distinguish it here *)
    if not (node_live cl h.home) then Sss_net.Rpc.crashed ~system:"sss" ~node:h.home.id;
    Hashtbl.remove h.home.ack_boxes h.id;
    if cl.config.Config.strict_order then begin
      (* wr-chaining: the parked writers we read from must externally commit
         before our own writes become reader-visible (and a fortiori before
         our client is informed) — otherwise a reader could observe our
         data, still serialize before the writer we depend on, and close a
         cycle. *)
      await_observed_parked h;
      (* Release the writer entries everywhere and wait for confirmation
         BEFORE informing the client: a reader that finds the entry parked
         can then always safely serialize before this transaction. *)
      let fin =
        {
          ack_expect = List.length write_nodes;
          acked = Hashtbl.create 8;
          ack_phase = `Fin;
          ack_done = Sim.Ivar.create ();
        }
      in
      Hashtbl.replace h.home.ack_boxes h.id fin;
      send_nodes cl ~src:h.home.id ~dsts:write_nodes (Message.Finalize { txn = h.id });
      await_acks cl h fin ~dsts:write_nodes ~msg:(Message.Finalize { txn = h.id })
        ~phase:"finalize ack";
      if not (node_live cl h.home) then Sss_net.Rpc.crashed ~system:"sss" ~node:h.home.id;
      Hashtbl.remove h.home.ack_boxes h.id
    end;
    (* Completion protocol done: in-doubt queries no longer need this
       incarnation (and after a crash the restored decision will say so). *)
    (match Hashtbl.find_opt h.home.decided_commits h.id with
    | Some d -> d.ddriving <- false
    | None -> ());
    mark_finalized h;
    h.home.coordinated_max <- Vclock.max h.home.coordinated_max commit_vc;
    cl.stats.committed_update <- cl.stats.committed_update + 1;
    if cl.stats.collect_latencies then
      cl.stats.latencies <- (h.begin_at, decide_at, now cl) :: cl.stats.latencies;
    record cl (History.Commit { txn = h.id; ws = ws_keys });
    (match cl.obs with
    | Some o -> Sss_obs.Obs.txn_commit o h.id ~node:h.home.id ~ro:false ~began:h.begin_at
    | None -> ());
    true
  end

let commit h =
  if h.finished then invalid_arg "Sss_kv: commit on a finished transaction";
  h.finished <- true;
  Hashtbl.remove h.home.active h.id;
  if h.ro then State.gc_unregister_ro h.cl h.id;
  if h.ws = [] then commit_read_only h else commit_update h

(* Voluntary abort before commit: nothing distributed is held yet except
   the snapshot-queue entries of a read-only transaction's reads, which the
   Remove message clears. *)
let abort h =
  if h.finished then invalid_arg "Sss_kv: abort on a finished transaction";
  h.finished <- true;
  Hashtbl.remove h.home.active h.id;
  if h.ro then State.gc_unregister_ro h.cl h.id;
  let cl = h.cl in
  cl.stats.aborted <- cl.stats.aborted + 1;
  record cl (History.Abort { txn = h.id });
  (match cl.obs with
  | Some o -> Sss_obs.Obs.txn_abort o h.id ~node:h.home.id ~ro:h.ro Sss_obs.Obs.Client
  | None -> ());
  let keys = read_keys h in
  if h.ro && keys <> [] then
    send_nodes cl ~src:h.home.id ~dsts:(replica_nodes cl keys) (Message.Remove { txn = h.id })
