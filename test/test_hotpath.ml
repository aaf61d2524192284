(* Properties for the hot-path optimizations: the sharing/in-place Vclock
   operations against a naive reference, the parked-writer Stampset index
   against a sorted-list oracle, the single-pass Squeue.remove against a
   filter model, and cross-dispatch-mode determinism of the full SSS
   cluster (the network's inline fast path must produce a byte-identical
   execution to the reference fiber-per-message path). *)

open Sss_sim
open Sss_data
open Sss_kv

let vc l = Vclock.of_array (Array.of_list l)

let to_l v = Array.to_list (Vclock.to_array v)

(* ---------- Vclock vs naive reference ---------- *)

let naive_max = List.map2 (fun x y -> if x < y then y else x)

let naive_leq xs ys = List.for_all2 ( <= ) xs ys

let vec = QCheck.(list_of_size (Gen.return 5) (int_bound 50))

let vpair = QCheck.pair vec vec

let vclock_max_matches_reference =
  QCheck.Test.make ~name:"vclock max matches naive reference" ~count:500 vpair
    (fun (xs, ys) ->
      let a = vc xs and b = vc ys in
      let m = Vclock.max a b in
      (* correct result, and the sharing optimization must never mutate its
         arguments *)
      to_l m = naive_max xs ys && to_l a = xs && to_l b = ys)

let vclock_max_into_matches_reference =
  QCheck.Test.make ~name:"vclock max_into matches naive reference" ~count:500 vpair
    (fun (xs, ys) ->
      let d = vc xs and s = vc ys in
      Vclock.max_into d s;
      to_l d = naive_max xs ys && to_l s = ys)

let vclock_orders_match_reference =
  QCheck.Test.make ~name:"vclock leq/equal/compare match reference" ~count:500 vpair
    (fun (xs, ys) ->
      let a = vc xs and b = vc ys in
      Vclock.leq a b = naive_leq xs ys
      && Vclock.equal a b = (xs = ys)
      && compare (Vclock.compare a b) 0 = compare (Stdlib.compare xs ys) 0
      && Vclock.compare a a = 0)

let vclock_set_into_and_copy =
  QCheck.Test.make ~name:"vclock set_into mutates only the copy" ~count:500
    QCheck.(triple vec (int_bound 4) (int_bound 100))
    (fun (xs, i, v) ->
      let a = vc xs in
      let c = Vclock.copy a in
      Vclock.set_into c i v;
      (* the copy took the write, the original did not *)
      Vclock.get c i = v
      && to_l a = xs
      && to_l c = List.mapi (fun j x -> if j = i then v else x) xs)

let test_vclock_unsafe_of_array_shares () =
  let arr = [| 1; 2; 3 |] in
  let v = Vclock.unsafe_of_array arr in
  arr.(1) <- 9;
  Alcotest.(check int) "adopted, not copied" 9 (Vclock.get v 1)

let test_vclock_blit () =
  let src = vc [ 4; 5; 6 ] in
  let dst = vc [ 0; 0; 0 ] in
  Vclock.blit ~src ~dst;
  Alcotest.(check (list int)) "blit copies all entries" [ 4; 5; 6 ] (to_l dst);
  Vclock.set_into dst 0 7;
  Alcotest.(check int) "blit did not alias" 4 (Vclock.get src 0)

(* ---------- Stampset vs sorted-list oracle ---------- *)

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

let probes = [ 0; 1; 7; 15; 29; 30 ]

let stampset_matches_oracle =
  QCheck.Test.make ~name:"stampset matches sorted-list oracle" ~count:300
    QCheck.(list (pair bool (int_bound 30)))
    (fun ops ->
      let s = Stampset.create () in
      let model = ref [] in
      List.for_all
        (fun (is_add, x) ->
          let op_ok =
            if is_add then begin
              Stampset.add s x;
              model := List.sort compare (x :: !model);
              true
            end
            else begin
              let present = List.mem x !model in
              let removed = Stampset.remove s x in
              if present then model := remove_one x !model;
              removed = present
            end
          in
          op_ok
          && Stampset.to_list s = !model
          && Stampset.length s = List.length !model
          && Stampset.is_empty s = (!model = [])
          && Stampset.min_elt s = (match !model with [] -> None | h :: _ -> Some h)
          && List.for_all
               (fun p ->
                 Stampset.mem s p = List.mem p !model
                 && Stampset.first_above s p = List.find_opt (fun y -> y > p) !model
                 && Stampset.exists_leq s p = List.exists (fun y -> y <= p) !model
                 && Stampset.exists_below s p = List.exists (fun y -> y < p) !model)
               probes)
        ops)

(* ---------- Squeue.remove vs filter model ---------- *)

let squeue_remove_matches_model =
  (* arbitrary inserts, then one removal: it must report presence, drop
     exactly the victim's entries, and keep everything else in order *)
  QCheck.Test.make ~name:"squeue remove matches filter model" ~count:300
    QCheck.(
      pair
        (list (quad (int_bound 2) (int_bound 2) (int_bound 3) (int_bound 20)))
        (pair (int_bound 2) (int_bound 3)))
    (fun (inserts, (vn, vl)) ->
      let q = Squeue.create () in
      List.iter
        (fun (kind, node, local, sid) ->
          let txn : Ids.txn = { node; local } in
          match kind with
          | 0 -> Squeue.insert_read q ~txn ~sid
          | 1 -> Squeue.insert_propagated q ~txn ~sid
          | _ -> Squeue.insert_write q ~txn ~sid)
        inserts;
      let victim : Ids.txn = { node = vn; local = vl } in
      let before_r = Squeue.readers q and before_w = Squeue.writers q in
      let was_present = Squeue.mem q victim in
      let removed = Squeue.remove q victim in
      let keep (e : Squeue.entry) = not (Ids.equal_txn e.txn victim) in
      removed = was_present
      && (not (Squeue.mem q victim))
      && Squeue.readers q = List.filter keep before_r
      && Squeue.writers q = List.filter keep before_w)

(* ---------- cross-dispatch-mode determinism ---------- *)

(* The same seeded workload, once per dispatch path.  Everything observable
   must coincide: committed/aborted counts, simulator event count, network
   telemetry, and the full recorded history (timestamps included). *)
let run_mode ~fast_dispatch =
  let sim = Sim.create () in
  let nodes = 3 and keys = 16 in
  let config =
    { Config.default with nodes; replication_degree = 2; total_keys = keys; seed = 23 }
  in
  let cl = Kv.create sim config in
  Sss_net.Network.set_fast_dispatch cl.State.net fast_dispatch;
  let ops =
    {
      Sss_workload.Driver.begin_txn = (fun ~node ~read_only -> Kv.begin_txn cl ~node ~read_only);
      read = Kv.read;
      write = Kv.write;
      commit = Kv.commit;
    }
  in
  let result =
    Sss_workload.Driver.run sim ~nodes ~total_keys:keys
      ~local_keys:(fun n -> Replication.keys_at cl.State.repl n)
      ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:0.5)
      ~load:
        {
          Sss_workload.Driver.default_load with
          clients_per_node = 4;
          warmup = 0.01;
          duration = 0.05;
          seed = 23;
        }
      ~ops
  in
  ( result.Sss_workload.Driver.committed,
    result.Sss_workload.Driver.aborted,
    Sss_net.Network.stats cl.State.net,
    Sss_consistency.History.events (Kv.history cl) )

(* Raw [Sim.events_processed] is deliberately NOT compared: the two paths
   may split a node's ingress stream into serve batches at slightly
   different points (a message arriving at the exact instant a batch
   finishes joins it in one mode and starts a fresh batch — one extra
   event — in the other), without moving any handler in virtual time.
   Everything protocol-observable must still coincide exactly. *)
let test_dispatch_modes_identical () =
  let fc, fa, fs, fh = run_mode ~fast_dispatch:true in
  let sc, sa, ss, sh = run_mode ~fast_dispatch:false in
  Alcotest.(check int) "committed" sc fc;
  Alcotest.(check int) "aborted" sa fa;
  Alcotest.(check bool) "network stats" true (fs = ss);
  Alcotest.(check int) "history length" (List.length sh) (List.length fh);
  Alcotest.(check bool) "history byte-identical" true (fh = sh);
  Alcotest.(check bool) "made progress" true (fc > 50)

(* ---------- Boot allocation budget ----------

   Booting a cluster allocates the placement (one word per key, one per
   key-replica) and each store's key index, and nothing per key beyond
   them: no value string, no cons cell.  Words allocated are a
   deterministic count (Gc.counters: minor + major - promoted), so the
   budget holds on any machine. *)
let boot_words_budget = 3.5

(* Each store adopts its node's placement array as the key index and adds
   one head word plus one state byte per key: the index counts just over
   two words per key-replica (the resident-words accounting is exact, so
   this bound is deterministic too). *)
let index_words_budget = 2.25

let test_boot_allocation () =
  let nodes = 16 and degree = 2 and total_keys = 200_000 in
  let config = { Config.default with nodes; replication_degree = degree; total_keys } in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let sim = Sim.create () in
  let before = allocated () in
  let cl = Kv.create sim config in
  let key_replicas = float_of_int (degree * total_keys) in
  let per_replica = (allocated () -. before) /. key_replicas in
  if per_replica > boot_words_budget then
    Alcotest.failf "Kv.create allocated %.2f words per key-replica (budget %.2f)" per_replica
      boot_words_budget;
  let index = float_of_int (Kv.mem_words cl).Mvstore.index_words /. key_replicas in
  if index > index_words_budget then
    Alcotest.failf "key index holds %.2f words per key-replica (budget %.2f)" index
      index_words_budget

let () =
  Alcotest.run "hotpath"
    [
      ( "vclock",
        [
          QCheck_alcotest.to_alcotest vclock_max_matches_reference;
          QCheck_alcotest.to_alcotest vclock_max_into_matches_reference;
          QCheck_alcotest.to_alcotest vclock_orders_match_reference;
          QCheck_alcotest.to_alcotest vclock_set_into_and_copy;
          Alcotest.test_case "unsafe_of_array shares" `Quick test_vclock_unsafe_of_array_shares;
          Alcotest.test_case "blit" `Quick test_vclock_blit;
        ] );
      ("stampset", [ QCheck_alcotest.to_alcotest stampset_matches_oracle ]);
      ("squeue", [ QCheck_alcotest.to_alcotest squeue_remove_matches_model ]);
      ( "determinism",
        [ Alcotest.test_case "fast vs slow dispatch identical" `Quick test_dispatch_modes_identical ] );
      ("boot", [ Alcotest.test_case "allocation per key-replica" `Quick test_boot_allocation ]);
    ]
