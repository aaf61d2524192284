(* The running sum, minimum and maximum live in a 3-slot float array
   ([fl]) rather than mutable float fields: a mixed record's float field is
   boxed, so every [observe] would allocate a float and the write barrier
   would promote it into this long-lived histogram. *)
type t = {
  lo : float;
  ratio : float;
  counts : int array;
  mutable total : int;
  fl : float array;  (* [| sum; min; max |] *)
}

let sum_i = 0
let min_i = 1
let max_i = 2

let create ?(lo = 1e-7) ?(ratio = 2.0) ?(buckets = 48) () =
  if not (lo > 0.0) then invalid_arg "Hist.create: lo must be positive";
  if not (ratio > 1.0) then invalid_arg "Hist.create: ratio must exceed 1";
  if buckets < 2 then invalid_arg "Hist.create: need at least 2 buckets";
  {
    lo;
    ratio;
    counts = Array.make buckets 0;
    total = 0;
    fl = [| 0.0; infinity; neg_infinity |];
  }

let bucket_count t = Array.length t.counts

(* Iterative edge walk rather than a log/exp round trip: 48 multiplies at
   most, and the boundary semantics are exact (a value equal to an edge
   lands in the bucket above it, with no floating-point log fuzz). *)
let[@inline] bucket_index t v =
  let n = Array.length t.counts in
  if v < t.lo then 0
  else begin
    let i = ref 1 in
    let edge = ref (t.lo *. t.ratio) in
    while !i < n - 1 && v >= !edge do
      incr i;
      edge := !edge *. t.ratio
    done;
    !i
  end

let bucket_of t v = bucket_index t v

let bucket_bounds t i =
  let n = Array.length t.counts in
  if i < 0 || i >= n then invalid_arg "Hist.bucket_bounds: index out of range";
  if i = 0 then (0.0, t.lo)
  else begin
    let lower = ref t.lo in
    for _ = 2 to i do
      lower := !lower *. t.ratio
    done;
    let upper = if i = n - 1 then infinity else !lower *. t.ratio in
    (!lower, upper)
  end

(* Inlined into both entry points so that [observe_slot]'s value is never
   boxed on its way in. *)
let[@inline] record t v =
  let v = if v < 0.0 then 0.0 else v in
  let i = bucket_index t v in
  let fl = t.fl in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  fl.(sum_i) <- fl.(sum_i) +. v;
  if v < fl.(min_i) then fl.(min_i) <- v;
  if v > fl.(max_i) then fl.(max_i) <- v

let[@hot] observe t v = record t v

let[@hot] observe_slot t a i = record t (Array.unsafe_get a i)

let count t = t.total

let sum t = t.fl.(sum_i)

let mean t = if t.total = 0 then 0.0 else t.fl.(sum_i) /. float_of_int t.total

let min_value t = if t.total = 0 then 0.0 else t.fl.(min_i)

let max_value t = if t.total = 0 then 0.0 else t.fl.(max_i)

let counts t = Array.copy t.counts

(* Upper edge of the bucket holding the rank, clamped to the observed
   maximum so an estimate never exceeds any real value. *)
let percentile t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Hist.percentile: p outside (0, 1]";
  if t.total = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int t.total)) in
      if r < 1 then 1 else r
    in
    let n = Array.length t.counts in
    let cum = ref 0 in
    let found = ref (n - 1) in
    (try
       for i = 0 to n - 1 do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    let _, upper = bucket_bounds t !found in
    let vmax = t.fl.(max_i) in
    if upper > vmax then vmax else upper
  end

let same_shape a b =
  a.lo = b.lo && a.ratio = b.ratio && Array.length a.counts = Array.length b.counts

let merge a b =
  if not (same_shape a b) then invalid_arg "Hist.merge: shape mismatch";
  let m = create ~lo:a.lo ~ratio:a.ratio ~buckets:(Array.length a.counts) () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.total <- a.total + b.total;
  m.fl.(sum_i) <- a.fl.(sum_i) +. b.fl.(sum_i);
  m.fl.(min_i) <- Float.min a.fl.(min_i) b.fl.(min_i);
  m.fl.(max_i) <- Float.max a.fl.(max_i) b.fl.(max_i);
  m

let to_json t =
  Printf.sprintf
    {|{"count":%d,"mean":%.9g,"min":%.9g,"max":%.9g,"p50":%.9g,"p95":%.9g,"p99":%.9g}|}
    t.total (mean t) (min_value t) (max_value t)
    (if t.total = 0 then 0.0 else percentile t 0.50)
    (if t.total = 0 then 0.0 else percentile t 0.95)
    (if t.total = 0 then 0.0 else percentile t 0.99)
