(** Cost-model request placement across device classes.

    Pure: the event loop snapshots each class into a {!class_view} and
    {!route} ranks them — no hidden state, so routing decisions are
    unit-testable and deterministic by construction.

    The predicted cost of placing a request on a class is

    {v service + cold_compile + backlog_seconds / (replicas · weight) v}

    where [service] is the class engine's (calibrated, ranker-ordered —
    whatever its compiler carries) step time for the request's bucketed
    shape, [cold_compile] the modeled polymerization stall for the step
    shapes still missing from that class's warm store
    (recompile-on-arrival, charged on the event clock when the request
    actually lands), and the backlog term the queueing delay implied by
    the {e predicted work seconds} of everything queued or in flight on
    the class — each bucket signature's copy count times that class's
    own step time for the bucket, not a count times a trailing
    average, so a queue of
    cheap interactive steps and a queue of heavy conv jobs rank
    honestly against each other. {!route} can further scale the
    backlog down by a WFQ admission [weight], since a weight-4 gold
    request is served ahead of most of a mixed queue. [Hetero.run]
    does not pass one: every request is routed at weight 1 today,
    whatever its tier, so the cost it ranks on is
    [service + cold_compile + backlog_seconds / replicas].

    The cost is also the predicted time-to-first-token, which makes the
    router deadline-aware (see {!route}'s [ttft_budget]): a class whose
    predicted cost fits the request's budget (with a safety margin
    absorbing prediction error) strictly outranks every class predicted
    to miss it, and among fitting classes the {e slowest} service wins —
    the classic "don't spend the fast machine on work that doesn't need
    it" dispatch rule. Tight-budget interactive prefills can only fit on
    the latency-strong class; loose batch jobs soak the throughput
    class until its backlog stops fitting, then overflow. That is what
    separates the two request families without any hard-coded affinity.

    Health gates the candidates: [Evicted] classes are skipped unless
    their breaker is probe-ready (then one request may be committed as
    the half-open probe); [Degraded] classes only take cheap shapes
    (bucketed tokens ≤ [degraded_max_tokens] — the brown-out ladder's
    middle rung). If no class is eligible the router falls back to the
    cheapest class regardless of health ([d_forced]) — availability
    over perfection. *)

type class_view = {
  cv_class : int;  (** index into the fleet's backend order *)
  cv_level : Health.level;
  cv_probe_ready : bool;  (** breaker would admit a probe now *)
  cv_replicas : int;
  cv_queue : int;  (** requests waiting in the class queue *)
  cv_inflight : int;  (** requests running on class replicas *)
  cv_service : float;  (** predicted step seconds for this request *)
  cv_cold_compile : float;  (** modeled stall for warm-store misses *)
  cv_backlog : float;
      (** predicted service seconds of all queued + in-flight work on
          the class, at this class's step times *)
}

type decision = {
  d_class : int;
  d_cost : float;
  d_probe : bool;  (** this placement is the class's half-open probe *)
  d_forced : bool;  (** no healthy class could take it *)
}

val cost : class_view -> float
(** Weight-1 cost: the full-backlog estimate every request sees in
    [Hetero.run] today. *)

val route :
  ?degraded_max_tokens:int ->
  ?ttft_budget:float ->
  ?weight:int ->
  tokens:int ->
  class_view list ->
  decision
(** Best eligible class, ties to the lowest class index. With a finite
    [ttft_budget], classes whose cost fits the budget (with the safety
    margin) outrank classes that miss, the slowest-service fitting
    class wins, and among missing classes the cheapest cost wins; with
    the default infinite budget the rank is plain cheapest-cost.
    [weight] defaults to 1 (the raw backlog).
    [degraded_max_tokens] defaults to [max_int] (a degraded class still
    takes everything). Raises [Invalid_argument] on an empty view
    list. *)
