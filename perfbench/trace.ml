(* Host clocks, the in-memory span recorder, and the sampled per-event tap
   of the traced run. *)

(* Process CPU seconds, user + system, as getrusage reports them: the
   quantity [Unix.times] returns as tms_utime + tms_stime, read through the
   unboxed, allocation-free [Sys.time] so that spans can take it around
   every operation.  The simulator is single-threaded and does no I/O, so
   this is the program's cost; wall time also counts other tenants of the
   machine. *)
let cpu () = Sys.time ()

let wall () = Unix.gettimeofday ()

(* ---------- spans ----------

   Struct-of-arrays, grown by doubling.  A span has a name, a transaction
   id (packed [Ids.txn], -1 for host-level spans), a parent span (-1 for a
   root), and start/end stamps in virtual and CPU time.  A span whose call
   suspended its fiber gets CPU stamps of nan: the CPU spent between
   suspension and resumption belongs to other fibers. *)

type spans = {
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (* newest first *)
  mutable n : int;
  mutable name : int array;
  mutable txn : int array;
  mutable parent : int array;
  mutable v0 : float array;
  mutable v1 : float array;
  mutable c0 : float array;
  mutable c1 : float array;
}

let create_spans () =
  let cap = 1024 in
  {
    names = Hashtbl.create 16;
    name_list = [];
    n = 0;
    name = Array.make cap 0;
    txn = Array.make cap 0;
    parent = Array.make cap 0;
    v0 = Array.make cap 0.0;
    v1 = Array.make cap 0.0;
    c0 = Array.make cap 0.0;
    c1 = Array.make cap 0.0;
  }

let name_id s name =
  match Hashtbl.find_opt s.names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length s.names in
      Hashtbl.add s.names name i;
      s.name_list <- name :: s.name_list;
      i

let grow s =
  let cap = 2 * Array.length s.name in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  s.name <- gi s.name;
  s.txn <- gi s.txn;
  s.parent <- gi s.parent;
  s.v0 <- gf s.v0;
  s.v1 <- gf s.v1;
  s.c0 <- gf s.c0;
  s.c1 <- gf s.c1

(* Open a span at [v0]/[c0]; its end stays nan until {!finish}. *)
let start s ~name ~txn ~parent ~v0 ~c0 =
  if s.n = Array.length s.name then grow s;
  let i = s.n in
  s.n <- i + 1;
  s.name.(i) <- name;
  s.txn.(i) <- txn;
  s.parent.(i) <- parent;
  s.v0.(i) <- v0;
  s.c0.(i) <- c0;
  s.v1.(i) <- nan;
  s.c1.(i) <- nan;
  i

let finish s i ~v1 ~c1 ~suspended =
  s.v1.(i) <- v1;
  if suspended then begin
    s.c0.(i) <- nan;
    s.c1.(i) <- nan
  end
  else s.c1.(i) <- c1

let set_txn s i txn = s.txn.(i) <- txn

(* A host-level span around [f] (set-up, driver runs, checks): never
   suspends, virtual time frozen at [v]. *)
let around s ~name ~parent ~v f =
  let i = start s ~name:(name_id s name) ~txn:(-1) ~parent ~v0:v ~c0:(cpu ()) in
  let r = f i in
  finish s i ~v1:v ~c1:(cpu ()) ~suspended:false;
  r

(* Virtual durations of every finished span named [name], in seconds. *)
let virtual_durations s name =
  match Hashtbl.find_opt s.names name with
  | None -> [||]
  | Some id ->
      let acc = ref [] in
      for i = s.n - 1 downto 0 do
        if s.name.(i) = id && not (Float.is_nan s.v1.(i)) then
          acc := (s.v1.(i) -. s.v0.(i)) :: !acc
      done;
      Array.of_list !acc

(* Sum of CPU durations of the non-suspending spans named [name], with
   their count. *)
let cpu_total s name =
  match Hashtbl.find_opt s.names name with
  | None -> (0.0, 0)
  | Some id ->
      let t = ref 0.0 and k = ref 0 in
      for i = 0 to s.n - 1 do
        if s.name.(i) = id && not (Float.is_nan s.c1.(i)) then begin
          t := !t +. (s.c1.(i) -. s.c0.(i));
          incr k
        end
      done;
      (!t, !k)

let write_jsonl s path =
  let names = Array.of_list (List.rev s.name_list) in
  let oc = open_out path in
  let num f = if Float.is_nan f then "null" else Printf.sprintf "%.9g" f in
  for i = 0 to s.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"txn\":%d,\"parent\":%d,\"v0\":%s,\"v1\":%s,\"c0\":%s,\"c1\":%s}\n"
      i names.(s.name.(i)) s.txn.(i) s.parent.(i) (num s.v0.(i)) (num s.v1.(i))
      (num s.c0.(i)) (num s.c1.(i))
  done;
  close_out oc

(* ---------- the sampled per-event tap ----------

   Installed with [Sim.set_probe]; it runs after every executed event and,
   every [every]-th call, samples the engine's event count, process CPU,
   [Gc.minor_words], each node's ingress-queue depth, and the number of
   messages in flight.  It schedules nothing and draws no randomness, so
   the trajectory is unchanged.  [chain] is the probe the tap displaces
   (the store's own observer sampling); it runs first on every event. *)

type probe = {
  every : int;  (* a power of two *)
  mutable calls : int;
  mutable k : int;
  mutable ev : int array;
  mutable pc : float array;
  mutable mw : float array;
  depth_hist : int array;  (* per-node ingress depth, clamped to the last bucket *)
  mutable inflight_sum : float;
}

let create_probe ~every =
  {
    every;
    calls = 0;
    k = 0;
    ev = Array.make 4096 0;
    pc = Array.make 4096 0.0;
    mw = Array.make 4096 0.0;
    depth_hist = Array.make 4096 0;
    inflight_sum = 0.0;
  }

let sample p ~events ~nodes ~depth ~inflight =
  if p.k = Array.length p.ev then begin
    let n = 2 * p.k in
    p.ev <- Array.append p.ev (Array.make (n - p.k) 0);
    p.pc <- Array.append p.pc (Array.make (n - p.k) 0.0);
    p.mw <- Array.append p.mw (Array.make (n - p.k) 0.0)
  end;
  p.ev.(p.k) <- events;
  p.pc.(p.k) <- cpu ();
  p.mw.(p.k) <- Gc.minor_words ();
  p.k <- p.k + 1;
  let last = Array.length p.depth_hist - 1 in
  for node = 0 to nodes - 1 do
    let d = min last (depth node) in
    p.depth_hist.(d) <- p.depth_hist.(d) + 1
  done;
  p.inflight_sum <- p.inflight_sum +. float_of_int (inflight ())

let install ?(chain = ignore) p sim ~nodes ~depth ~inflight =
  let mask = p.every - 1 in
  Sss_sim.Sim.set_probe sim
    (Some
       (fun () ->
         chain ();
         p.calls <- p.calls + 1;
         if p.calls land mask = 0 then
           sample p ~events:(Sss_sim.Sim.events_processed sim) ~nodes ~depth ~inflight))

type probe_summary = {
  samples : int;
  ns_per_event : float;
  ns_first_decile : float;
  ns_last_decile : float;
  minor_words_per_event : float;
  depth_p99 : int;
  mean_inflight : float;
}

let summarize p =
  let rate a b =
    let de = p.ev.(b) - p.ev.(a) in
    if de <= 0 then nan else (p.pc.(b) -. p.pc.(a)) *. 1e9 /. float_of_int de
  in
  let last = p.k - 1 in
  let tenth = max 1 (p.k / 10) in
  let depth_p99 =
    let total = Array.fold_left ( + ) 0 p.depth_hist in
    let target = total - (total / 100) in
    let rec go i acc =
      if i >= Array.length p.depth_hist - 1 then i
      else
        let acc = acc + p.depth_hist.(i) in
        if acc >= target then i else go (i + 1) acc
    in
    if total = 0 then 0 else go 0 0
  in
  let mean_inflight = if p.k = 0 then 0.0 else p.inflight_sum /. float_of_int p.k in
  if p.k < 20 then
    {
      samples = p.k;
      ns_per_event = nan;
      ns_first_decile = nan;
      ns_last_decile = nan;
      minor_words_per_event = nan;
      depth_p99;
      mean_inflight;
    }
  else
    {
      samples = p.k;
      ns_per_event = rate 0 last;
      ns_first_decile = rate 0 tenth;
      ns_last_decile = rate (last - tenth) last;
      minor_words_per_event = (p.mw.(last) -. p.mw.(0)) /. float_of_int (p.ev.(last) - p.ev.(0));
      depth_p99;
      mean_inflight;
    }
