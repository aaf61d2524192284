(** Fixed-bucket geometric histograms over virtual-time durations.

    Buckets are fixed at creation: bucket 0 holds values below [lo], bucket
    [i >= 1] holds [lo * ratio^(i-1) <= v < lo * ratio^i], and the last
    bucket additionally absorbs everything larger.  The defaults (100 ns
    lower edge, ratio 2, 48 buckets) span nanoseconds to hours of virtual
    time, which covers every latency the simulator can produce.

    Recording is allocation-free after creation and never consults a clock
    or PRNG, so an enabled histogram cannot perturb a trajectory.
    Percentiles are bucket-resolution estimates: the reported quantile is
    the upper edge of the bucket containing the rank, clamped to the
    largest value actually observed. *)

type t

val create : ?lo:float -> ?ratio:float -> ?buckets:int -> unit -> t
(** [lo] > 0 is bucket 1's lower edge (default [1e-7]); [ratio] > 1 the
    geometric growth factor (default [2.0]); [buckets] >= 2 the total
    bucket count (default [48]). *)

val observe : t -> float -> unit
(** Record one (non-negative) value; allocates nothing. *)

val observe_slot : t -> float array -> int -> unit
(** [observe_slot t a i] records [a.(i)].  Without flambda a float crossing
    a function boundary is boxed, so a caller holding the value unboxed
    writes it into a float array it owns and passes the slot instead. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [0.0] when empty. *)

val min_value : t -> float
(** Smallest observed value; [0.0] when empty. *)

val max_value : t -> float
(** Largest observed value; [0.0] when empty. *)

val bucket_count : t -> int

val bucket_of : t -> float -> int
(** Index of the bucket a value falls in. *)

val bucket_bounds : t -> int -> float * float
(** [(lower, upper)] edges of a bucket; bucket 0's lower edge is [0.0] and
    the last bucket's upper edge is [infinity]. *)

val counts : t -> int array
(** A copy of the per-bucket counts. *)

val percentile : t -> float -> float
(** [percentile t p] for [0.0 < p <= 1.0]; [0.0] when empty. *)

val merge : t -> t -> t
(** Combine two histograms of identical shape into a fresh one.
    @raise Invalid_argument on shape mismatch. *)

val to_json : t -> string
(** [{"count":..,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}] *)
