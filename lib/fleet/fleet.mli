(** Multi-tenant continuous-batching fleet over the {!Mikpoly_serve}
    scheduler primitives.

    One fleet-wide weighted-fair queue ({!Wfq}) feeds N replica slots
    running the same event-clock simulation contract as
    {!Mikpoly_serve.Scheduler.run}: bit-identical outcomes for a given
    (config, engine, trace, fault plan), independent of [--jobs] and of
    wall-clock time. On top of plain WFQ dispatch the fleet adds three
    compile-aware planes:

    - {b Shape-aware coalescing} ([coalesce]): each admission pulls a
      group of requests sharing one bucketed shape signature, so the
      whole group costs at most one compile stall; signatures are sticky
      to the replica that last served them (owner affinity) with a
      [steal_age] bound so no request waits forever for a busy owner.
    - {b Learned warm store} ([warm]): a decayed per-tenant histogram
      ({!Learner}) ranks hot signatures; a serialized background worker
      precompiles their step shapes into a fleet-shared cache whose
      entries carry a ready-at time. A replica missing its own cache
      takes a warm program stall-free once the background compile has
      finished; an on-path compile publishes fleet-wide so each shape is
      compiled at most once across the fleet.
    - {b Autoscaling} ([autoscale]): periodic {!Autoscaler} ticks over
      queue depth, running SLO attainment and stall ratio spawn or
      retire replicas with hysteresis; crashed replicas count against
      capacity and never read as scale-down signals. *)

type warm_config = {
  warm_top_k : int;  (** signatures refreshed per interval *)
  warm_interval : float;  (** seconds between learner-driven refreshes *)
  warm_half_life : float;  (** decay half-life of the shape histogram *)
  warm_capacity : int;  (** warm-store LRU capacity (shapes) *)
}

val default_warm : warm_config

type config = {
  replicas : int;  (** initial fleet size (clamped to autoscale bounds) *)
  batcher : Mikpoly_serve.Batcher.policy;
  bucketing : Mikpoly_serve.Bucketing.policy;
  cache_capacity : int;  (** per-replica program-cache LRU capacity *)
  coalesce : bool;  (** group admissions by shape signature *)
  steal_age : float;
      (** seconds after which a request may be served by a non-owner
          replica — the starvation bound on owner affinity *)
  warm : warm_config option;  (** [None] disables the warm store *)
  autoscale : Autoscaler.config option;  (** [None] pins the fleet size *)
  ratelimit : Ratelimit.config option;
      (** base (weight-1) token bucket per tenant, scaled by tier weight
          via {!Ratelimit.for_tier}; shedding happens at arrival, before
          the WFQ and the warm-store learner. [None] admits everything. *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on nonsensical settings. *)

type tier_metrics = {
  tm_tier : Tenant.tier;
  tm_requests : int;  (** trace requests from tenants of this tier *)
  tm_completed : int;
  tm_slo_met : int;
  tm_attainment : float;  (** slo_met / requests (dropped count against) *)
}

type outcome = {
  completed : Mikpoly_serve.Scheduler.completed list;  (** finish order *)
  dropped : Mikpoly_serve.Request.t list;  (** shed by the SLO batcher *)
  rate_limited : Mikpoly_serve.Request.t list;
      (** refused at the door by the per-tenant token bucket *)
  steps : int;
  makespan : float;
  compile_stall_seconds : float;  (** on-path (request-visible) only *)
  actual_tokens : int;
  padded_tokens : int;
  cache : Mikpoly_serve.Shape_cache.stats list;
      (** live replica caches in slot order, then retired/crashed ones *)
  warm_stats : Mikpoly_serve.Shape_cache.stats option;
  warm_hits : int;  (** replica misses served stall-free by the warm store *)
  warm_compiles : int;  (** background compiles off the critical path *)
  warm_background_seconds : float;
  coalesced_groups : int;  (** admissions of >1 request, one signature *)
  queue_depth_sum : int;
  queue_samples : int;
  crashes : int;
  injected_faults : int;
  requeues : int;  (** in-flight requests bounced back to their lanes *)
  scale_ups : int;
  scale_downs : int;
  peak_replicas : int;
  replica_seconds : float;  (** Σ per-replica active time — the cost side *)
  lanes : Wfq.lane_stats list;
  tiers : tier_metrics list;
}

val slo_met : Mikpoly_serve.Scheduler.completed -> bool
(** Both the TTFT and the end-to-end budget were met. *)

val tier_metrics :
  Tenant.tagged list ->
  Mikpoly_serve.Scheduler.completed list ->
  tier_metrics list
(** Per-tier request, completion and SLO-met counts of a run over
    [trace], in {!Tenant.tiers} order — one pass over each list. *)

val run :
  ?faults:Mikpoly_fault.Plan.t ->
  config ->
  Mikpoly_serve.Scheduler.engine ->
  Tenant.tagged list ->
  outcome
(** Serve a tagged multi-tenant trace to completion, as a one-class run
    of the shared {!Event_loop} kernel. Deterministic: event ties break
    crash < arrival < hedge < warm-refresh < autoscale-tick < replica
    step, then lowest replica index (a fleet never hedges). Device-class
    outage and brown-out windows in [faults] apply to class 0, i.e. the
    whole fleet. *)

val to_scheduler_outcome : outcome -> Mikpoly_serve.Scheduler.outcome
(** Project onto the single-tenant outcome record so the
    {!Mikpoly_serve.Metrics} report pipeline applies unchanged:
    rate-limited requests surface as rejections (reason
    ["rate-limited"]); fields the fleet does not model — retry budgets,
    timeouts — are zero/empty. *)
