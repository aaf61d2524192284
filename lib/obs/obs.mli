(** Structured observability for the simulated cluster: a typed trace ring
    plus a metrics registry (counters, latency histograms, gauges), all on
    virtual time.

    Everything here is passive: recording never draws from a PRNG, never
    schedules simulator events, and never touches a wall clock, so an
    enabled observer cannot change a trajectory — only look at it.  The
    protocols hold an [Obs.t option] and skip every call site when it is
    [None], which keeps the disabled case allocation-free (the
    observer-effect contract pinned by [test/test_obs.ml] and the
    [bench/smoke.sh] gate).

    Recording allocates nothing either.  Metrics sit in int-indexed arrays
    behind handles that are registered once, and the trace ring is a
    struct of unboxed arrays (transaction ids stored as {!Sss_data.Ids.pack}),
    decoded into {!event}s only when read back.  The typed emitters below
    are the only way to write to the ring.

    See docs/OBSERVABILITY.md for the event taxonomy, the ring layout and
    the metric naming scheme. *)

open Sss_data

(** One protocol-level occurrence, as read back by {!events}. *)
type event =
  | Send of { kind : string; src : int; dst : int; bytes : int }
      (** a message left [src] for [dst] *)
  | Recv of { kind : string; src : int; dst : int }
      (** a message arrived at [dst] (before queueing) *)
  | Enqueue of { kind : string; node : int; depth : int }
      (** pushed onto a node's ingress queue; [depth] includes it *)
  | Dequeue of { kind : string; node : int; depth : int; waited : float }
      (** dispatched to its handler; [waited] is virtual time since send *)
  | Drop of { kind : string; src : int; dst : int }
      (** lost: crashed endpoint, severed link, or injected loss *)
  | Txn_begin of { txn : Ids.txn; node : int; ro : bool }
  | Txn_commit of { txn : Ids.txn; node : int; ro : bool }
  | Txn_abort of { txn : Ids.txn; node : int; ro : bool; reason : string }
  | Park of { txn : Ids.txn; node : int; stamp : int }
      (** an applied writer entered the parked (not externally committed) set *)
  | Unpark of { txn : Ids.txn; node : int; stamp : int }
      (** it left that set (finalized or aborted) *)
  | Lock_acquire of { txn : Ids.txn; node : int; keys : int }
  | Lock_release of { txn : Ids.txn; node : int }
  | Vclock_advance of { node : int; value : int }
      (** a node bumped its own vector-clock entry to [value] *)
  | Retry of { src : int; dst : int; attempt : int }
      (** the at-least-once transport re-sent an unacknowledged message *)
  | Stall of { src : int; dst : int }
      (** it gave up on one after exhausting the retry budget *)

type stamped = { at : float;  (** virtual time *) seq : int; event : event }

(** Why a transaction aborted; rendered as [txn.abort.<name>] and as the
    trace's [reason] field. *)
type abort_reason =
  | Client  (** ["client"]: the client gave up before commit *)
  | Vote  (** ["vote"]: a participant voted no *)
  | Vote_false  (** ["vote-false"]: SSS, a participant voted no *)
  | Vote_timeout  (** ["vote-timeout"]: SSS, the vote round timed out *)
  | Conflict  (** ["conflict"]: Walter, a write-write conflict at the home *)
  | Ro_rounds  (** ["ro-rounds"]: ROCOCO, read-only rounds never converged *)

val reason_name : abort_reason -> string

type t

val create : ?capacity:int -> Sss_sim.Sim.t -> t
(** A fresh observer on the simulator's virtual clock, whose trace ring
    holds [capacity] events (default 65536); older events are overwritten
    and counted in {!dropped}.  The ring grows by doubling as events
    arrive, so a short run never pays for the full capacity. *)

(** {1 Handles}

    Register a metric once, then bump it through its handle: no string is
    built, hashed or compared per bump, and nothing is allocated.
    Registering a name twice returns the same handle.  A registered metric
    that is never bumped does not appear in any read-back. *)

type counter [@@immediate]
type hist [@@immediate]
type gauge [@@immediate]

type kind [@@immediate]
(** A message kind: its trace name plus its [msg.sent.<kind>],
    [msg.recv.<kind>], [msg.lost.<kind>] counters and [lat.msg.<kind>]
    histogram. *)

val register_counter : t -> string -> counter
val register_hist : t -> string -> hist
(** Histograms use the {!Hist.create} defaults. *)

val register_gauge : t -> string -> gauge
val message_kind : t -> string -> kind

val bump : t -> counter -> unit
val bump_by : t -> counter -> int -> unit

val record_since : t -> hist -> since:float -> unit
(** Record the virtual time elapsed since [since]. *)

val set_level : t -> gauge -> int -> unit
(** Set a gauge's current value; its peak is tracked automatically. *)

(** {1 Typed emitters}

    Each writes one event to the ring, stamped with the current virtual
    time, and bumps the metrics that go with it. *)

val send : t -> kind -> src:int -> dst:int -> bytes:int -> unit
(** [Send]; bumps [msg.sent.<kind>]. *)

val recv : t -> kind -> src:int -> dst:int -> unit
(** [Recv]; bumps [msg.recv.<kind>]. *)

val enqueue : t -> kind -> node:int -> depth:int -> unit

val dequeue : t -> kind -> node:int -> depth:int -> sent:float array -> unit
(** [Dequeue], where [sent.(0)] is the message's send time (a float array
    so the time crosses no function boundary boxed); records the wait into
    [lat.msg.<kind>]. *)

val drop : t -> kind -> src:int -> dst:int -> unit
(** [Drop]; bumps [msg.lost.<kind>].  The one loss recorder, wherever the
    message was lost. *)

val txn_begin : t -> Ids.txn -> node:int -> ro:bool -> unit
(** [Txn_begin]; bumps [txn.begin.<cls>] ([cls] is [ro] or [update]). *)

val txn_commit : t -> Ids.txn -> node:int -> ro:bool -> began:float -> unit
(** [Txn_commit]; bumps [txn.commit.<cls>] and records the time since
    [began] into [lat.txn.<cls>]. *)

val txn_abort : t -> Ids.txn -> node:int -> ro:bool -> abort_reason -> unit
(** [Txn_abort]; bumps [txn.abort.<reason>]. *)

val commit_durable : t -> since:float -> unit
(** A commit decision reached stable storage: records the time since
    [since] into [lat.commit.durable].  No trace event. *)

val park : t -> Ids.txn -> node:int -> stamp:int -> unit
(** [Park]; bumps [sq.park]. *)

val unpark : t -> Ids.txn -> node:int -> stamp:int -> unit
(** [Unpark]; bumps [sq.unpark]. *)

val lock_acquire : t -> Ids.txn -> node:int -> keys:int -> unit
(** [Lock_acquire]; bumps [lock.acquire]. *)

val lock_release : t -> Ids.txn -> node:int -> unit
(** [Lock_release]; bumps [lock.release]. *)

val vclock_advance : t -> node:int -> value:int -> unit
(** [Vclock_advance]; bumps [vclock.advance]. *)

val retry : t -> src:int -> dst:int -> attempt:int -> unit
(** [Retry]; bumps [transport.retry]. *)

val stall : t -> src:int -> dst:int -> unit
(** [Stall]; bumps [transport.stall]. *)

(** {1 Recording by name}

    Each resolves the name's handle, registering it on first use, then
    bumps it.  For call sites off the hot path. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val observe : t -> string -> float -> unit
(** Record a value into a named histogram. *)

val gauge_set : t -> string -> int -> unit

(** {1 Reading back} *)

val emitted : t -> int
(** Total events ever emitted (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring wraparound. *)

val events : t -> stamped list
(** The retained trace, oldest first. *)

val counter : t -> string -> int
(** [0] when never bumped. *)

val counters : t -> (string * int) list
(** All bumped counters, sorted by name. *)

val hist : t -> string -> Hist.t option
(** [None] until the histogram holds a value. *)

val hists : t -> (string * Hist.t) list
(** All non-empty histograms, sorted by name. *)

val gauges : t -> (string * (int * int)) list
(** All set gauges as [(name, (current, peak))], sorted by name. *)

val kind_of_event : event -> string
(** The variant's name in the JSONL dump: ["send"], ["txn_commit"], ... *)

(** {1 Dumps} *)

val event_json : stamped -> string
(** One trace event as a single-line JSON object; transaction ids render
    as {!Sss_data.Ids.txn_to_string}. *)

val trace_jsonl : t -> string
(** The retained trace as JSON Lines, oldest first, one event per line. *)

val metrics_json : t -> string
(** The whole registry as one JSON object:
    [{"counters":{..},"histograms":{..},"gauges":{..},
      "trace":{"emitted":..,"retained":..,"dropped":..}}]
    with keys sorted, so equal registries render identically. *)
