(* R5 fixture, clean twin: emission through the observability sink, string
   building (always legal), and a deliberate CLI print under [@print_ok]. *)

let announce_commit obs txn ~began =
  Sss_obs.Obs.txn_commit obs txn ~node:0 ~ro:false ~began

let describe_queue depth = Printf.sprintf "queue depth: %d" depth

let pp_stall fmt (src, dst) = Format.fprintf fmt "stall %d -> %d" src dst

(* binding-level suppression: a deliberate operator-facing dump *)
let[@print_ok] dump_trace lines = List.iter print_endline lines

(* expression-level suppression also works *)
let last_resort msg = (prerr_endline msg [@print_ok])
