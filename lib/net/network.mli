(** Simulated message-passing network.

    Models the paper's testbed (§V): reliable asynchronous channels with a
    configurable propagation latency (~20µs on their InfiniBand cluster), a
    per-node serial processing capacity (a message occupies its destination
    node's CPU for [cpu_per_message] before its handler runs), and — like
    SSS's "optimized network component" — per-message priorities: when a
    node is saturated, higher-priority messages (e.g. Remove) overtake
    lower-priority ones in its ingress queue.

    Failures can be injected for tests: message drop probability, link
    partitions, and node crashes (crash-stop; a crashed node neither sends
    nor receives). *)

type config = {
  latency_base : float;  (** fixed one-way propagation delay, seconds *)
  latency_jitter : float;  (** mean of an added exponential jitter; 0 = none *)
  self_latency : float;  (** delay for messages a node sends to itself *)
  cpu_per_message : float;  (** destination service time per message *)
}

val default_config : config
(** 20µs base latency, 2µs jitter, 1µs self delivery, 2µs service — chosen
    to mirror the paper's cluster; experiments override as needed. *)

type 'msg t

val create :
  ?size_of:('msg -> int) ->
  ?fast_dispatch:bool ->
  Sss_sim.Sim.t ->
  Sss_sim.Prng.t ->
  nodes:int ->
  config:config ->
  'msg t
(** [size_of] (default: 0) is charged to the byte counter per sent message,
    letting protocols account for their wire footprint (e.g. vector-clock
    compression).

    [fast_dispatch] (default [true]) selects the inline dispatch fast path:
    one callback event per delivered message, with the handler run inline
    under its own effect handler (parking only if it actually suspends)
    instead of a fiber sleep plus a spawned handler fiber per message.
    Disable to run the reference path, e.g. for the cross-path determinism
    test. *)

val nodes : 'msg t -> int

val set_handler : 'msg t -> Sss_data.Ids.node -> (src:Sss_data.Ids.node -> 'msg -> unit) -> unit
(** Install the message handler for a node.  Each delivery runs the handler
    in a fresh fiber context (inline on the fast path, spawned on the slow
    path), so handlers may block without stalling the node's ingress
    queue. *)

val set_fast_dispatch : 'msg t -> bool -> unit
(** Switch dispatch paths at runtime (see {!create}); intended for tests
    comparing the two. *)

(** {1 Observation} *)

type 'msg observer = {
  obs : Sss_obs.Obs.t;
  kind_id : 'msg -> int;
  kind_names : string list;
}
(** A trace/metrics sink plus the protocol's message classifier: [kind_id]
    numbers a message's kind and [kind_names] names each number in order
    (e.g. ["prepare"]). *)

val set_observer : 'msg t -> 'msg observer option -> unit
(** Install (or remove) an observer, resolving its per-kind and per-node
    handles once.  With one installed the network emits
    [Send]/[Recv]/[Enqueue]/[Dequeue]/[Drop] trace events, per-kind
    sent/recv/lost counters, per-kind end-to-end latency histograms
    ([lat.msg.<kind>]) and per-node ingress-depth gauges
    ([net.queue.node<i>]).  A message lost anywhere — on the wire or at a
    destination that crashed while it was in flight — counts in
    [msg.lost.<kind>], so once quiescent [sent = recv + lost] per kind
    (absent duplication faults).  Observation is passive: it draws no
    randomness and schedules nothing, so trajectories are unchanged. *)

val queue_depth : 'msg t -> Sss_data.Ids.node -> int
(** Current ingress-queue depth of a node (for gauge sampling). *)

val send : 'msg t -> ?prio:int -> src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> 'msg -> unit
(** Fire-and-forget; lower [prio] is served first under saturation
    (default 100). *)

val send_many : 'msg t -> ?prio:int -> src:Sss_data.Ids.node -> dst:Sss_data.Ids.node list -> 'msg -> unit

(** {1 Fault injection}

    Raw primitives; the declarative layer that drives them from a seeded,
    reproducible fault plan is [Sss_chaos.Chaos] (see docs/FAULTS.md).
    All of them only affect {e future} sends/deliveries — messages already
    in flight when a fault is injected are not retroactively dropped. *)

val crash : 'msg t -> Sss_data.Ids.node -> unit
(** Fail-stop the node's network interface: every message sent by or
    addressed to it (including messages already in flight towards it) is
    dropped until {!recover}.  The node's in-memory protocol state and its
    running fibers are untouched — this models a network-isolated process,
    and a recovery therefore resumes with its pre-crash state (see
    docs/FAULTS.md for what that does and does not exercise). *)

val recover : 'msg t -> Sss_data.Ids.node -> unit
(** Undo {!crash}: the node sends and receives again. *)

val is_crashed : 'msg t -> Sss_data.Ids.node -> bool

val sever : 'msg t -> Sss_data.Ids.node -> Sss_data.Ids.node -> unit
(** Cut the (bidirectional) link between two nodes: sends in either
    direction are dropped until {!heal}.  Idempotent. *)

val heal : 'msg t -> Sss_data.Ids.node -> Sss_data.Ids.node -> unit
(** Restore a severed link; a no-op if the link is intact. *)

val set_drop_probability : 'msg t -> float -> unit
(** Uniform message loss (default 0): each send is dropped with this
    probability, drawn from the network's own PRNG (so enabling it changes
    the jitter draw sequence of the run — use a {!set_perturb} plan with its
    own PRNG when the surrounding trajectory must stay comparable). *)

val drop_probability : 'msg t -> float
(** Current uniform loss probability. *)

type fault = { drop : bool; extra_delay : float; duplicates : int }
(** Verdict of a perturbation hook for one message: lose it, delay it by
    [extra_delay] seconds on top of the modelled latency, and/or deliver
    [duplicates] extra copies (at the same perturbed latency). *)

val no_fault : fault
(** [{ drop = false; extra_delay = 0.0; duplicates = 0 }] *)

val set_perturb :
  'msg t ->
  (src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> 'msg -> fault) option ->
  unit
(** Install (or clear, with [None]) a per-send perturbation hook.  The hook
    runs after the built-in checks (crashed source, severed link, uniform
    drop), so when it is absent the send path is exactly the healthy one.
    Any randomness belongs inside the hook, drawn from the caller's own
    seeded PRNG — [Sss_chaos.Chaos] compiles declarative fault plans
    into such a hook. *)

(* Telemetry *)

type stats = { sent : int; delivered : int; dropped : int; bytes : int }

val stats : 'msg t -> stats
