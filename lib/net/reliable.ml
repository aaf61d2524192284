(* At-least-once delivery with exactly-once processing on top of
   {!Network}: the machinery behind each protocol's fault-tolerance mode.

   The sender wraps a payload in a protocol-level [Tracked]-style envelope
   carrying a token unique across the cluster (the envelope constructor is
   supplied by the protocol, since the message type is its own), then a
   retry fiber re-sends the envelope with exponential backoff until the
   receiver's receipt arrives or the retry budget is exhausted.  The
   receiver acknowledges every copy (receipts themselves can be lost) but
   processes the payload only the first time, so protocol handlers never
   observe re-deliveries and need no per-message idempotency reasoning.

   Everything runs on virtual time and plain data: no wall clock, no
   ambient randomness, so retries are as deterministic as the rest of the
   simulation.

   Allocation audit: this module is inactive in healthy runs
   ([Config.fault_tolerance] defaults to [false]; [State.send] then calls
   [Network.send] directly), so nothing here sits on the benchmark hot
   path.  In fault-tolerance mode the per-send cost is one envelope, one
   ivar, two hashtable entries and a retry fiber — all inherent to the
   at-least-once contract, none carrying floats across non-inlined
   boundaries (timeouts stay inside the fiber's own frames). *)

open Sss_sim

type retry = { initial : float; max : float; limit : int }

type 'msg t = {
  sim : Sim.t;
  net : 'msg Network.t;
  retry : retry;
  mutable token : int;  (* cluster-global: tokens are unique per send *)
  awaiting : (int, unit Sim.Ivar.t) Hashtbl.t;
  seen : (int, float) Hashtbl.t;  (* token -> first processing time *)
  mutable seen_ops : int;
  mutable retries : int;
  mutable stalled : int;
  mutable obs : Sss_obs.Obs.t option;
}

let create sim net ~retry =
  {
    sim;
    net;
    retry;
    token = 0;
    awaiting = Hashtbl.create 256;
    seen = Hashtbl.create 1024;
    seen_ops = 0;
    retries = 0;
    stalled = 0;
    obs = None;
  }

let set_obs t o = t.obs <- o

let send t ?prio ~src ~dst wrap =
  t.token <- t.token + 1;
  let token = t.token in
  let msg = wrap token in
  let iv = Sim.Ivar.create () in
  Hashtbl.replace t.awaiting token iv;
  Network.send t.net ?prio ~src ~dst msg;
  (* The retry fiber gives up silently after [limit] attempts (counted in
     [stalled]): an unreachable destination must not keep the event queue
     alive forever, and the foreground waiter has its own backstop that
     turns the stall into a typed {!Rpc.Stalled}. *)
  Sim.spawn t.sim (fun () ->
      let rec watch attempt timeout =
        match Sim.Ivar.read_timeout t.sim iv ~timeout with
        | Some () -> Hashtbl.remove t.awaiting token
        | None ->
            if attempt >= t.retry.limit then begin
              Hashtbl.remove t.awaiting token;
              t.stalled <- t.stalled + 1;
              match t.obs with Some o -> Sss_obs.Obs.stall o ~src ~dst | None -> ()
            end
            else begin
              t.retries <- t.retries + 1;
              (match t.obs with
              | Some o -> Sss_obs.Obs.retry o ~src ~dst ~attempt
              | None -> ());
              Network.send t.net ?prio ~src ~dst msg;
              watch (attempt + 1) (Float.min (timeout *. 2.0) t.retry.max)
            end
      in
      watch 1 t.retry.initial)

let delivered t token =
  match Hashtbl.find_opt t.awaiting token with
  | Some iv -> if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill t.sim iv ()
  | None -> ()  (* late receipt of an already-confirmed (or abandoned) send *)

(* Re-delivery ends with the sender's retry horizon, which is bounded by
   [limit] backoffs; anything older than this can be forgotten safely. *)
let seen_horizon = 30.0

let receive t token =
  if Hashtbl.mem t.seen token then false
  else begin
    Hashtbl.replace t.seen token (Sim.now t.sim);
    t.seen_ops <- t.seen_ops + 1;
    if t.seen_ops land 8191 = 0 then begin
      let cutoff = Sim.now t.sim -. seen_horizon in
      (* Sweep in sorted token order so the table's post-sweep shape never
         depends on bucket order (deterministic by construction). *)
      let stale =
        (Hashtbl.fold (fun k at acc -> if at < cutoff then k :: acc else acc) t.seen []
        [@order_ok])
        |> List.sort Int.compare
      in
      List.iter (Hashtbl.remove t.seen) stale
    end;
    true
  end

let retries t = t.retries

let stalled t = t.stalled
