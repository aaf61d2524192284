(* Event order is the total order (time, prio, seq).  The priority and the
   per-simulator sequence number are packed into one int key — seq is unique
   and bounded by 2^44 events per simulator (20+ days of wall clock at 10M
   events/sec), so a single int comparison reproduces the lexicographic
   (prio, seq) tie-break exactly and the ladder queue's pop order is fully
   determined regardless of rung internals. *)
let seq_bits = 44

let max_prio = 1 lsl (62 - seq_bits)

let[@inline] pack_key ~prio ~seq = (prio lsl seq_bits) lor seq

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Hoisted to a constant: none of the three closures captures anything, and
   allocating the handler record per [run_fiber] call would cost several
   words on every message delivery. *)
let fiber_handler : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                register (fun () -> Effect.Deep.continue k ()))
        | _ -> None);
  }

let run_fiber f = Effect.Deep.match_with f () fiber_handler

(* The queue stores events as an (fn, arg) application.  Thunk events (the
   classic [schedule]/[spawn] interface) go through one of these two static
   appliers, so the fiber/callback distinction costs no per-event storage;
   [schedule_apply] events pass the caller's long-lived handler directly.
   The Obj casts are confined to these appliers and [schedule_apply], whose
   types guarantee fn and arg were paired at push time. *)
let call_thunk : Obj.t -> unit = fun f -> (Obj.obj f : unit -> unit) ()

let call_fiber : Obj.t -> unit = fun f -> run_fiber (Obj.obj f : unit -> unit)

type t = {
  (* The clock lives in a flat float array rather than a mutable float
     field: a mixed record's float field is boxed, so writing it would
     allocate on every executed event. *)
  clock : float array;
  mutable seq : int;
  mutable processed : int;
  events : Equeue.t;
  (* Observation tap, run after every executed event.  The probe must be
     passive — no scheduling, no PRNG draws — so installing one cannot
     change a trajectory; the observability layer uses it to sample gauges
     "on DES ticks" without the simulator depending on it.  Stored as a
     bare closure ([ignore] when absent) so the per-event path has no
     option check. *)
  mutable probe : unit -> unit;
}

(* The protocols above the simulator remain allocation-heavy (message
   payloads, vector clocks); the default 256k-word minor heap forces a
   minor collection every few thousand events and promotes long-lived
   in-flight state.  Growing it once to 8M words is worth ~15% wall clock
   on the figure benchmarks.  Only ever grow — respect a larger value from
   OCAMLRUNPARAM.  The guard is an Atomic so concurrent [create] calls from
   pool domains (Sss_par) race benignly: exactly one domain performs the
   [Gc.set].  Harnesses that fan out should call [tune_gc] once before
   spawning so the resize happens while the runtime is single-domain. *)
let gc_tuned = Atomic.make false

let tune_gc () =
  if (not (Atomic.get gc_tuned)) && Atomic.compare_and_set gc_tuned false true then begin
    let g = Gc.get () in
    let want = 8 * 1024 * 1024 in
    if g.Gc.minor_heap_size < want then Gc.set { g with Gc.minor_heap_size = want }
  end

let create () =
  tune_gc ();
  {
    clock = Array.make 1 0.0;
    seq = 0;
    processed = 0;
    events = Equeue.create ();
    probe = ignore;
  }

let[@inline] now t = Array.unsafe_get t.clock 0

let clock t = t.clock

let events_processed t = t.processed

let[@inline] [@hot] enqueue t ~prio ~delay ~fiber run =
  assert (delay >= 0.0);
  assert (prio >= 0 && prio < max_prio);
  let key = pack_key ~prio ~seq:t.seq in
  t.seq <- t.seq + 1;
  Equeue.push t.events ~time:(now t +. delay) ~key
    (if fiber then call_fiber else call_thunk)
    (Obj.repr run)

let schedule t ?(prio = 100) ~delay f = enqueue t ~prio ~delay ~fiber:true f

let schedule_callback t ?(prio = 100) ~delay f = enqueue t ~prio ~delay ~fiber:false f

let[@hot] schedule_apply (type a) t ?(prio = 100) ~delay (fn : a -> unit) (arg : a) =
  assert (delay >= 0.0);
  assert (prio >= 0 && prio < max_prio);
  let key = pack_key ~prio ~seq:t.seq in
  t.seq <- t.seq + 1;
  Equeue.push t.events ~time:(now t +. delay) ~key
    (Obj.magic (fn : a -> unit) : Obj.t -> unit)
    (Obj.repr arg)

let spawn t ?prio f = schedule t ?prio ~delay:0.0 f

let tick t = t.processed <- t.processed + 1

(* [raw_suspend register] parks the fiber and hands [register] the raw
   continuation.  Whoever holds it must arrange for it to run (directly or
   as an event body), exactly once, at the current or a later virtual
   time.  The public [suspend] below enforces this by routing through the
   event queue. *)
let raw_suspend register = Effect.perform (Suspend register)

let suspend t ?(prio = 100) register =
  raw_suspend (fun resume ->
      register (fun () -> enqueue t ~prio ~delay:0.0 ~fiber:false resume))

let sleep t delay =
  raw_suspend (fun resume -> enqueue t ~prio:100 ~delay ~fiber:false resume)

let set_probe t p = t.probe <- (match p with None -> ignore | Some f -> f)

let[@inline] [@hot] exec_popped t =
  let q = t.events in
  Array.unsafe_set t.clock 0 (Equeue.popped_time q);
  t.processed <- t.processed + 1;
  Equeue.run_popped q;
  t.probe ()

let run t =
  let q = t.events in
  while Equeue.pop q do
    exec_popped t
  done

let run_until t limit =
  let q = t.events in
  while Equeue.min_time q <= limit && Equeue.pop q do
    exec_popped t
  done;
  if now t < limit then t.clock.(0) <- limit

(* Waiter batching: waking W parked fibers used to enqueue W separate
   events — one heap push and one event-loop turn per waiter.  A broadcast
   or fill now enqueues a single run-queue drain that resumes every waiter
   in FIFO order at the same (time, prio) instant.  Trajectories are
   unchanged: the old per-waiter events held consecutive sequence numbers,
   so nothing could interleave between them, and anything a resumed fiber
   schedules lands after the drain either way.  [tick] keeps
   [events_processed] comparable across engines (one logical event per
   waiter). *)
let drain_waiters ((sim, ws) : t * (unit -> unit) list) =
  match ws with
  | [] -> ()
  | w :: rest ->
      w ();
      List.iter
        (fun r ->
          tick sim;
          r ())
        rest

let wake_all sim ws =
  match ws with
  | [] -> ()
  | [ w ] -> enqueue sim ~prio:100 ~delay:0.0 ~fiber:false w
  | ws -> schedule_apply sim ~prio:100 ~delay:0.0 drain_waiters (sim, List.rev ws)

module Cond = struct

  type t = { mutable waiters : (unit -> unit) list }

  let create () = { waiters = [] }

  let wait _sim c = raw_suspend (fun resume -> c.waiters <- resume :: c.waiters)

  let broadcast sim c =
    let ws = c.waiters in
    c.waiters <- [];
    wake_all sim ws

  let await sim c pred =
    let rec loop () =
      if not (pred ()) then begin
        wait sim c;
        loop ()
      end
    in
    loop ()

  let await_timeout sim c ~timeout pred =
    let deadline = now sim +. timeout in
    let rec loop () =
      if pred () then true
      else if now sim >= deadline then false
      else begin
        (* Park on the condition but also arm a timer; whichever fires
           first wins through the [fired] flag.  When the timer wins, the
           dead waiter is compacted out of [c.waiters] immediately — a
           long-lived condition whose waiters keep timing out (lock waits,
           vote timeouts) must not accumulate cancelled closures until the
           next broadcast. *)
        let fired = ref false in
        raw_suspend (fun resume ->
            let wake () =
              if not !fired then begin
                fired := true;
                resume ()
              end
            in
            c.waiters <- wake :: c.waiters;
            enqueue sim ~prio:100 ~delay:(deadline -. now sim) ~fiber:false
              (fun () ->
                if not !fired then begin
                  fired := true;
                  c.waiters <- List.filter (fun w -> w != wake) c.waiters;
                  resume ()
                end));
        loop ()
      end
    in
    loop ()
end

module Ivar = struct

  type 'a t = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { value = None; waiters = [] }

  let is_filled iv = Option.is_some iv.value

  let peek iv = iv.value

  let fill sim iv v =
    match iv.value with
    | Some _ -> invalid_arg "Sim.Ivar.fill: already filled"
    | None ->
        iv.value <- Some v;
        let ws = iv.waiters in
        iv.waiters <- [];
        wake_all sim ws

  let read sim iv =
    ignore sim;
    match iv.value with
    | Some v -> v
    | None ->
        raw_suspend (fun resume -> iv.waiters <- resume :: iv.waiters);
        (match iv.value with
        | Some v -> v
        | None -> assert false)

  let read_timeout sim iv ~timeout =
    match iv.value with
    | Some _ -> iv.value
    | None ->
        let fired = ref false in
        raw_suspend (fun resume ->
            let wake () =
              if not !fired then begin
                fired := true;
                resume ()
              end
            in
            iv.waiters <- wake :: iv.waiters;
            enqueue sim ~prio:100 ~delay:timeout ~fiber:false (fun () ->
                if not !fired then begin
                  fired := true;
                  (* compact the dead waiter, as in [Cond.await_timeout] *)
                  iv.waiters <- List.filter (fun w -> w != wake) iv.waiters;
                  resume ()
                end));
        iv.value
end
