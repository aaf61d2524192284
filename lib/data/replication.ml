type t = {
  nodes : int;
  degree : int;
  total_keys : int;
  base : int array;  (* key -> first replica *)
  at : Ids.key array array;  (* node -> keys stored *)
}

(* splitmix64-style finalizer: spreads consecutive key ids uniformly. *)
let hash_key k =
  let z = Int64.add (Int64.of_int k) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 8)

(* Two-pass counting sort: count each node's replicas, allocate exact-size
   arrays, then fill them in ascending key order (a node appears at most
   once among a key's [degree] consecutive replicas). *)
let create ~nodes ~degree ~total_keys =
  if degree < 1 || degree > nodes then
    invalid_arg "Replication.create: degree must be within 1 .. nodes";
  let base = Array.init total_keys (fun k -> hash_key k mod nodes) in
  let fill = Array.make nodes 0 in
  for k = 0 to total_keys - 1 do
    for j = 0 to degree - 1 do
      let n = (base.(k) + j) mod nodes in
      fill.(n) <- fill.(n) + 1
    done
  done;
  let at = Array.map (fun c -> Array.make c 0) fill in
  Array.fill fill 0 nodes 0;
  for k = 0 to total_keys - 1 do
    for j = 0 to degree - 1 do
      let n = (base.(k) + j) mod nodes in
      at.(n).(fill.(n)) <- k;
      fill.(n) <- fill.(n) + 1
    done
  done;
  { nodes; degree; total_keys; base; at }

let nodes t = t.nodes

let degree t = t.degree

let total_keys t = t.total_keys

let replicas t k = List.init t.degree (fun j -> (t.base.(k) + j) mod t.nodes)

let is_replica t n k =
  let d = (n - t.base.(k) + t.nodes) mod t.nodes in
  d < t.degree

let keys_at t n = t.at.(n)
