open Sss_sim

type mode = Shared | Exclusive

type state = { mutable ex : Ids.txn option; mutable sh : Ids.txn list }

(* A holder's keys, and whether a successful [acquire_all] granted them
   (false while the holder is still part-way through one). *)
type holding = { mutable keys : Ids.key list; mutable granted : bool }

type t = {
  sim : Sim.t;
  table : (Ids.key, state) Hashtbl.t;
  held : (Ids.txn, holding) Hashtbl.t;
  changed : Sim.Cond.t;
}

let create sim =
  { sim; table = Hashtbl.create 256; held = Hashtbl.create 64; changed = Sim.Cond.create () }

let state t k =
  match Hashtbl.find_opt t.table k with
  | Some s -> s
  | None ->
      let s = { ex = None; sh = [] } in
      Hashtbl.replace t.table k s;
      s

let note_held t txn k =
  let h =
    match Hashtbl.find_opt t.held txn with
    | Some h -> h
    | None ->
        let h = { keys = []; granted = false } in
        Hashtbl.replace t.held txn h;
        h
  in
  if not (List.mem k h.keys) then h.keys <- k :: h.keys

let same = Ids.equal_txn

let can_take s txn = function
  | Shared -> ( match s.ex with None -> true | Some o -> same o txn)
  | Exclusive -> (
      (match s.ex with None -> true | Some o -> same o txn)
      && List.for_all (fun o -> same o txn) s.sh)

let take t s txn mode k =
  (match mode with
  | Shared -> if not (List.exists (same txn) s.sh) then s.sh <- txn :: s.sh
  | Exclusive -> s.ex <- Some txn);
  note_held t txn k

let acquire t txn mode k ~timeout =
  let s = state t k in
  if can_take s txn mode then begin
    take t s txn mode k;
    true
  end
  else begin
    let granted =
      Sim.Cond.await_timeout t.sim t.changed ~timeout (fun () -> can_take s txn mode)
    in
    if granted then take t s txn mode k;
    granted
  end

let release_key t txn k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some s ->
      (match s.ex with Some o when same o txn -> s.ex <- None | _ -> ());
      s.sh <- List.filter (fun o -> not (same o txn)) s.sh

let release_txn t txn =
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some h ->
      List.iter (release_key t txn) h.keys;
      Hashtbl.remove t.held txn);
  Sim.Cond.broadcast t.sim t.changed

let acquire_all t txn ~exclusive ~shared ~timeout =
  let sorted = List.sort_uniq Int.compare in
  let rec go mode = function
    | [] -> true
    | k :: rest -> acquire t txn mode k ~timeout && go mode rest
  in
  let ok = go Exclusive (sorted exclusive) && go Shared (sorted shared) in
  if ok then (match Hashtbl.find_opt t.held txn with Some h -> h.granted <- true | None -> ())
  else release_txn t txn;
  ok

let granted t txn =
  match Hashtbl.find_opt t.held txn with Some h -> h.granted | None -> false

let holds_exclusive t txn k =
  match Hashtbl.find_opt t.table k with
  | Some { ex = Some o; _ } -> same o txn
  | _ -> false

let holds_shared t txn k =
  match Hashtbl.find_opt t.table k with
  | Some s -> List.exists (same txn) s.sh
  | None -> false

let is_free t k =
  match Hashtbl.find_opt t.table k with
  | None -> true
  | Some s -> s.ex = None && s.sh = []

let locked_keys t txn =
  match Hashtbl.find_opt t.held txn with Some h -> h.keys | None -> []

let holder_count t = Hashtbl.length t.held

let holders t =
  List.sort Ids.compare_txn (Hashtbl.fold (fun txn _ acc -> txn :: acc) t.held [] [@order_ok])
