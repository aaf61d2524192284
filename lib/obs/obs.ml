open Sss_data

type event =
  | Send of { kind : string; src : int; dst : int; bytes : int }
  | Recv of { kind : string; src : int; dst : int }
  | Enqueue of { kind : string; node : int; depth : int }
  | Dequeue of { kind : string; node : int; depth : int; waited : float }
  | Drop of { kind : string; src : int; dst : int }
  | Txn_begin of { txn : Ids.txn; node : int; ro : bool }
  | Txn_commit of { txn : Ids.txn; node : int; ro : bool }
  | Txn_abort of { txn : Ids.txn; node : int; ro : bool; reason : string }
  | Park of { txn : Ids.txn; node : int; stamp : int }
  | Unpark of { txn : Ids.txn; node : int; stamp : int }
  | Lock_acquire of { txn : Ids.txn; node : int; keys : int }
  | Lock_release of { txn : Ids.txn; node : int }
  | Vclock_advance of { node : int; value : int }
  | Retry of { src : int; dst : int; attempt : int }
  | Stall of { src : int; dst : int }

type stamped = { at : float; seq : int; event : event }

type abort_reason = Client | Vote | Vote_false | Vote_timeout | Conflict | Ro_rounds

let reasons = [ Client; Vote; Vote_false; Vote_timeout; Conflict; Ro_rounds ]

let reason_index = function
  | Client -> 0
  | Vote -> 1
  | Vote_false -> 2
  | Vote_timeout -> 3
  | Conflict -> 4
  | Ro_rounds -> 5

let reason_name = function
  | Client -> "client"
  | Vote -> "vote"
  | Vote_false -> "vote-false"
  | Vote_timeout -> "vote-timeout"
  | Conflict -> "conflict"
  | Ro_rounds -> "ro-rounds"

(* Handles index the registry's arrays. *)
type counter = int
type hist = int
type gauge = int
type kind = int

(* A name table: each name registered once, numbered in registration
   order. *)
type names = { index : (string, int) Hashtbl.t; mutable names : string array; mutable n : int }

let names () = { index = Hashtbl.create 32; names = Array.make 32 ""; n = 0 }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern nm s =
  match Hashtbl.find_opt nm.index s with
  | Some i -> i
  | None ->
      let i = nm.n in
      if i = Array.length nm.names then nm.names <- grow nm.names (2 * i) "";
      nm.names.(i) <- s;
      nm.n <- i + 1;
      Hashtbl.replace nm.index s i;
      i

let find nm s = Hashtbl.find_opt nm.index s

(* The metrics registry: one name table per family, values in int-indexed
   arrays.  A handle is registered before it is first bumped; only bumped
   entries (observed, for histograms) are live and reach the read-backs. *)
type registry = {
  counter_names : names;
  mutable c_val : int array;
  mutable c_live : bool array;
  hist_names : names;
  mutable h_val : Hist.t array;
  gauge_names : names;
  mutable g_cur : int array;
  mutable g_peak : int array;
  mutable g_live : bool array;
}

let registry () =
  {
    counter_names = names ();
    c_val = Array.make 32 0;
    c_live = Array.make 32 false;
    hist_names = names ();
    h_val = Array.make 32 (Hist.create ());
    gauge_names = names ();
    g_cur = Array.make 32 0;
    g_peak = Array.make 32 min_int;
    g_live = Array.make 32 false;
  }

let counter_of r name =
  let i = intern r.counter_names name in
  if i = Array.length r.c_val then begin
    r.c_val <- grow r.c_val (2 * i) 0;
    r.c_live <- grow r.c_live (2 * i) false
  end;
  i

let hist_of r name =
  let fresh = r.hist_names.n in
  let i = intern r.hist_names name in
  if i = fresh then begin
    let h = Hist.create () in
    if i = Array.length r.h_val then r.h_val <- grow r.h_val (2 * i) h;
    r.h_val.(i) <- h
  end;
  i

let gauge_of r name =
  let i = intern r.gauge_names name in
  if i = Array.length r.g_cur then begin
    r.g_cur <- grow r.g_cur (2 * i) 0;
    r.g_peak <- grow r.g_peak (2 * i) min_int;
    r.g_live <- grow r.g_live (2 * i) false
  end;
  i

(* The trace ring is a struct of arrays, one slot per event:

     at      virtual time (unboxed)
     waited  Dequeue only: virtual time since send (unboxed)
     head    tag (4 bits) | ro (1 bit) | trace-name id (kind or reason)
     a b c   the payload ints; c holds the txn as [Ids.pack]

   Six words a slot, none of them a pointer, so writing an event allocates
   nothing and the write barrier never runs.  The arrays start small and
   double up to [capacity]; only then does the write cursor wrap. *)
type t = {
  clock : float array;  (* the simulator's, read-only *)
  capacity : int;
  mutable at : float array;
  mutable waited : float array;
  mutable head : int array;
  mutable a : int array;
  mutable b : int array;
  mutable c : int array;
  mutable slot : int;  (* next write index *)
  mutable next : int;  (* events ever emitted; the newest has seq [next - 1] *)
  tmp : float array;  (* one slot: a duration on its way into a histogram *)
  trace_names : names;
  reg : registry;
  (* message kinds: trace name and per-kind metrics *)
  kind_names : names;
  mutable k_name : int array;
  mutable k_sent : counter array;
  mutable k_recv : counter array;
  mutable k_lost : counter array;
  mutable k_lat : hist array;
  (* fixed families, resolved at [create]; per-class arrays are indexed by
     [cls ro] *)
  c_begin : counter array;
  c_commit : counter array;
  h_txn : hist array;
  c_abort : counter array;  (* by [reason_index] *)
  c_park : counter;
  c_unpark : counter;
  c_lock_acquire : counter;
  c_lock_release : counter;
  c_vclock : counter;
  c_retry : counter;
  c_stall : counter;
  h_durable : hist;
}

let initial_slots = 64

let register_counter t name = counter_of t.reg name

let register_hist t name = hist_of t.reg name

let register_gauge t name = gauge_of t.reg name

let message_kind t name =
  let fresh = t.kind_names.n in
  let k = intern t.kind_names name in
  if k = fresh then begin
    if k = Array.length t.k_name then begin
      let n = 2 * k in
      t.k_name <- grow t.k_name n 0;
      t.k_sent <- grow t.k_sent n 0;
      t.k_recv <- grow t.k_recv n 0;
      t.k_lost <- grow t.k_lost n 0;
      t.k_lat <- grow t.k_lat n 0
    end;
    t.k_name.(k) <- intern t.trace_names name;
    t.k_sent.(k) <- counter_of t.reg ("msg.sent." ^ name);
    t.k_recv.(k) <- counter_of t.reg ("msg.recv." ^ name);
    t.k_lost.(k) <- counter_of t.reg ("msg.lost." ^ name);
    t.k_lat.(k) <- hist_of t.reg ("lat.msg." ^ name)
  end;
  k

let create ?(capacity = 65536) sim =
  if capacity < 1 then invalid_arg "Obs.create: capacity must be positive";
  let slots = Int.min capacity initial_slots in
  let trace_names = names () in
  (* reasons take trace names 0..5, so a reason's name id is its index *)
  List.iter (fun r -> ignore (intern trace_names (reason_name r))) reasons;
  let reg = registry () in
  let by_cls f = [| f "update"; f "ro" |] in
  {
    clock = Sss_sim.Sim.clock sim;
    capacity;
    at = Array.make slots 0.0;
    waited = Array.make slots 0.0;
    head = Array.make slots 0;
    a = Array.make slots 0;
    b = Array.make slots 0;
    c = Array.make slots 0;
    slot = 0;
    next = 0;
    tmp = [| 0.0 |];
    trace_names;
    reg;
    kind_names = names ();
    k_name = Array.make 32 0;
    k_sent = Array.make 32 0;
    k_recv = Array.make 32 0;
    k_lost = Array.make 32 0;
    k_lat = Array.make 32 0;
    c_begin = by_cls (fun c -> counter_of reg ("txn.begin." ^ c));
    c_commit = by_cls (fun c -> counter_of reg ("txn.commit." ^ c));
    h_txn = by_cls (fun c -> hist_of reg ("lat.txn." ^ c));
    c_abort =
      Array.of_list (List.map (fun r -> counter_of reg ("txn.abort." ^ reason_name r)) reasons);
    c_park = counter_of reg "sq.park";
    c_unpark = counter_of reg "sq.unpark";
    c_lock_acquire = counter_of reg "lock.acquire";
    c_lock_release = counter_of reg "lock.release";
    c_vclock = counter_of reg "vclock.advance";
    c_retry = counter_of reg "transport.retry";
    c_stall = counter_of reg "transport.stall";
    h_durable = hist_of reg "lat.commit.durable";
  }

(* ---- recording: handles ---- *)

let[@hot] bump_by t c n =
  let r = t.reg in
  Array.unsafe_set r.c_val c (Array.unsafe_get r.c_val c + n);
  Array.unsafe_set r.c_live c true

let[@hot] bump t c = bump_by t c 1

let[@hot] record_since t h ~since =
  Array.unsafe_set t.tmp 0 (Array.unsafe_get t.clock 0 -. since);
  Hist.observe_slot (Array.unsafe_get t.reg.h_val h) t.tmp 0

let[@hot] set_level t g v =
  let r = t.reg in
  Array.unsafe_set r.g_cur g v;
  if v > Array.unsafe_get r.g_peak g then Array.unsafe_set r.g_peak g v;
  Array.unsafe_set r.g_live g true

(* ---- recording: the ring ---- *)

let grow_ring t =
  let n = Int.min t.capacity (2 * Array.length t.head) in
  t.at <- grow t.at n 0.0;
  t.waited <- grow t.waited n 0.0;
  t.head <- grow t.head n 0;
  t.a <- grow t.a n 0;
  t.b <- grow t.b n 0;
  t.c <- grow t.c n 0

(* Claim the next slot and stamp it with the current virtual time. *)
let[@hot] claim t =
  if t.slot = Array.length t.head then
    if t.slot < t.capacity then grow_ring t else t.slot <- 0;
  let i = t.slot in
  t.slot <- i + 1;
  t.next <- t.next + 1;
  Array.unsafe_set t.at i (Array.unsafe_get t.clock 0);
  i

let[@hot] write t ~tag ~ro ~name a b c =
  let i = claim t in
  Array.unsafe_set t.head i (tag lor (Bool.to_int ro lsl 4) lor (name lsl 5));
  Array.unsafe_set t.a i a;
  Array.unsafe_set t.b i b;
  Array.unsafe_set t.c i c

let[@inline] cls ro = Bool.to_int ro

let[@hot] send t k ~src ~dst ~bytes =
  bump t (Array.unsafe_get t.k_sent k);
  write t ~tag:0 ~ro:false ~name:(Array.unsafe_get t.k_name k) src dst bytes

let[@hot] recv t k ~src ~dst =
  bump t (Array.unsafe_get t.k_recv k);
  write t ~tag:1 ~ro:false ~name:(Array.unsafe_get t.k_name k) src dst 0

let[@hot] enqueue t k ~node ~depth =
  write t ~tag:2 ~ro:false ~name:(Array.unsafe_get t.k_name k) node depth 0

let[@hot] dequeue t k ~node ~depth ~sent =
  write t ~tag:3 ~ro:false ~name:(Array.unsafe_get t.k_name k) node depth 0;
  let i = t.slot - 1 in
  Array.unsafe_set t.waited i (Array.unsafe_get t.clock 0 -. Array.unsafe_get sent 0);
  Hist.observe_slot (Array.unsafe_get t.reg.h_val (Array.unsafe_get t.k_lat k)) t.waited i

let[@hot] drop t k ~src ~dst =
  bump t (Array.unsafe_get t.k_lost k);
  write t ~tag:4 ~ro:false ~name:(Array.unsafe_get t.k_name k) src dst 0

let[@hot] txn_begin t txn ~node ~ro =
  bump t (Array.unsafe_get t.c_begin (cls ro));
  write t ~tag:5 ~ro ~name:0 node 0 (Ids.pack txn)

let[@hot] txn_commit t txn ~node ~ro ~began =
  bump t (Array.unsafe_get t.c_commit (cls ro));
  record_since t (Array.unsafe_get t.h_txn (cls ro)) ~since:began;
  write t ~tag:6 ~ro ~name:0 node 0 (Ids.pack txn)

let[@hot] txn_abort t txn ~node ~ro reason =
  let r = reason_index reason in
  bump t (Array.unsafe_get t.c_abort r);
  write t ~tag:7 ~ro ~name:r node 0 (Ids.pack txn)

let[@hot] commit_durable t ~since = record_since t t.h_durable ~since

let[@hot] park t txn ~node ~stamp =
  bump t t.c_park;
  write t ~tag:8 ~ro:false ~name:0 node stamp (Ids.pack txn)

let[@hot] unpark t txn ~node ~stamp =
  bump t t.c_unpark;
  write t ~tag:9 ~ro:false ~name:0 node stamp (Ids.pack txn)

let[@hot] lock_acquire t txn ~node ~keys =
  bump t t.c_lock_acquire;
  write t ~tag:10 ~ro:false ~name:0 node keys (Ids.pack txn)

let[@hot] lock_release t txn ~node =
  bump t t.c_lock_release;
  write t ~tag:11 ~ro:false ~name:0 node 0 (Ids.pack txn)

let[@hot] vclock_advance t ~node ~value =
  bump t t.c_vclock;
  write t ~tag:12 ~ro:false ~name:0 node value 0

let[@hot] retry t ~src ~dst ~attempt =
  bump t t.c_retry;
  write t ~tag:13 ~ro:false ~name:0 src dst attempt

let[@hot] stall t ~src ~dst =
  bump t t.c_stall;
  write t ~tag:14 ~ro:false ~name:0 src dst 0

(* ---- recording: by name ---- *)

let incr t name = bump t (register_counter t name)

let add t name n = bump_by t (register_counter t name) n

let observe t name v = Hist.observe t.reg.h_val.(register_hist t name) v

let gauge_set t name v = set_level t (register_gauge t name) v

(* ---- reading back ---- *)

let emitted t = t.next

let retained t = Int.min t.next t.capacity

let dropped t = t.next - retained t

let decode t i =
  let h = t.head.(i) and a = t.a.(i) and b = t.b.(i) and c = t.c.(i) in
  let name = t.trace_names.names.(h lsr 5) and ro = h land 16 <> 0 in
  match h land 15 with
  | 0 -> Send { kind = name; src = a; dst = b; bytes = c }
  | 1 -> Recv { kind = name; src = a; dst = b }
  | 2 -> Enqueue { kind = name; node = a; depth = b }
  | 3 -> Dequeue { kind = name; node = a; depth = b; waited = t.waited.(i) }
  | 4 -> Drop { kind = name; src = a; dst = b }
  | 5 -> Txn_begin { txn = Ids.unpack c; node = a; ro }
  | 6 -> Txn_commit { txn = Ids.unpack c; node = a; ro }
  | 7 -> Txn_abort { txn = Ids.unpack c; node = a; ro; reason = name }
  | 8 -> Park { txn = Ids.unpack c; node = a; stamp = b }
  | 9 -> Unpark { txn = Ids.unpack c; node = a; stamp = b }
  | 10 -> Lock_acquire { txn = Ids.unpack c; node = a; keys = b }
  | 11 -> Lock_release { txn = Ids.unpack c; node = a }
  | 12 -> Vclock_advance { node = a; value = b }
  | 13 -> Retry { src = a; dst = b; attempt = c }
  | _ -> Stall { src = a; dst = b }

let events t =
  let first = t.next - retained t in
  let len = Array.length t.head in
  List.init (retained t) (fun i ->
      let seq = first + i in
      let s = seq mod len in
      { at = t.at.(s); seq; event = decode t s })

(* Read-backs list live entries sorted by name, so neither registration
   order nor Hashtbl order reaches output (the discipline lint rule R4
   enforces on protocol state). *)
let live nm ~alive ~value =
  let l = ref [] in
  for i = nm.n - 1 downto 0 do
    if alive i then l := (nm.names.(i), value i) :: !l
  done;
  List.sort (fun (x, _) (y, _) -> String.compare x y) !l

let counter t name =
  match find t.reg.counter_names name with Some i -> t.reg.c_val.(i) | None -> 0

let counters { reg = r; _ } =
  live r.counter_names ~alive:(fun i -> r.c_live.(i)) ~value:(fun i -> r.c_val.(i))

let hist_live r i = Hist.count r.h_val.(i) > 0

let hist { reg = r; _ } name =
  match find r.hist_names name with
  | Some i when hist_live r i -> Some r.h_val.(i)
  | _ -> None

let hists { reg = r; _ } = live r.hist_names ~alive:(hist_live r) ~value:(fun i -> r.h_val.(i))

let gauges { reg = r; _ } =
  live r.gauge_names
    ~alive:(fun i -> r.g_live.(i))
    ~value:(fun i -> (r.g_cur.(i), r.g_peak.(i)))

let kind_of_event = function
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Enqueue _ -> "enqueue"
  | Dequeue _ -> "dequeue"
  | Drop _ -> "drop"
  | Txn_begin _ -> "txn_begin"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Park _ -> "park"
  | Unpark _ -> "unpark"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_release _ -> "lock_release"
  | Vclock_advance _ -> "vclock_advance"
  | Retry _ -> "retry"
  | Stall _ -> "stall"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let txn_str txn = escape (Ids.txn_to_string txn)

let event_fields = function
  | Send { kind; src; dst; bytes } ->
      Printf.sprintf {|"kind":"%s","src":%d,"dst":%d,"bytes":%d|} (escape kind) src dst bytes
  | Recv { kind; src; dst } ->
      Printf.sprintf {|"kind":"%s","src":%d,"dst":%d|} (escape kind) src dst
  | Enqueue { kind; node; depth } ->
      Printf.sprintf {|"kind":"%s","node":%d,"depth":%d|} (escape kind) node depth
  | Dequeue { kind; node; depth; waited } ->
      Printf.sprintf {|"kind":"%s","node":%d,"depth":%d,"waited":%.9g|} (escape kind) node depth
        waited
  | Drop { kind; src; dst } ->
      Printf.sprintf {|"kind":"%s","src":%d,"dst":%d|} (escape kind) src dst
  | Txn_begin { txn; node; ro } ->
      Printf.sprintf {|"txn":"%s","node":%d,"ro":%b|} (txn_str txn) node ro
  | Txn_commit { txn; node; ro } ->
      Printf.sprintf {|"txn":"%s","node":%d,"ro":%b|} (txn_str txn) node ro
  | Txn_abort { txn; node; ro; reason } ->
      Printf.sprintf {|"txn":"%s","node":%d,"ro":%b,"reason":"%s"|} (txn_str txn) node ro
        (escape reason)
  | Park { txn; node; stamp } ->
      Printf.sprintf {|"txn":"%s","node":%d,"stamp":%d|} (txn_str txn) node stamp
  | Unpark { txn; node; stamp } ->
      Printf.sprintf {|"txn":"%s","node":%d,"stamp":%d|} (txn_str txn) node stamp
  | Lock_acquire { txn; node; keys } ->
      Printf.sprintf {|"txn":"%s","node":%d,"keys":%d|} (txn_str txn) node keys
  | Lock_release { txn; node } -> Printf.sprintf {|"txn":"%s","node":%d|} (txn_str txn) node
  | Vclock_advance { node; value } -> Printf.sprintf {|"node":%d,"value":%d|} node value
  | Retry { src; dst; attempt } ->
      Printf.sprintf {|"src":%d,"dst":%d,"attempt":%d|} src dst attempt
  | Stall { src; dst } -> Printf.sprintf {|"src":%d,"dst":%d|} src dst

let event_json { at; seq; event } =
  Printf.sprintf {|{"at":%.9g,"seq":%d,"ev":"%s",%s}|} at seq (kind_of_event event)
    (event_fields event)

let trace_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b (event_json s);
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let metrics_json t =
  let b = Buffer.create 4096 in
  let obj b fmt_binding = function
    | [] -> Buffer.add_string b "{}"
    | bindings ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf {|"%s":|} (escape k));
            fmt_binding b v)
          bindings;
        Buffer.add_char b '}'
  in
  Buffer.add_string b {|{"counters":|};
  obj b (fun b v -> Buffer.add_string b (string_of_int v)) (counters t);
  Buffer.add_string b {|,"histograms":|};
  obj b (fun b h -> Buffer.add_string b (Hist.to_json h)) (hists t);
  Buffer.add_string b {|,"gauges":|};
  obj b
    (fun b (current, peak) ->
      Buffer.add_string b (Printf.sprintf {|{"current":%d,"peak":%d}|} current peak))
    (gauges t);
  Buffer.add_string b
    (Printf.sprintf {|,"trace":{"emitted":%d,"retained":%d,"dropped":%d}}|} (emitted t)
       (retained t) (dropped t));
  Buffer.contents b
