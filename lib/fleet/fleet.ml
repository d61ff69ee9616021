module Sch = Mikpoly_serve.Scheduler
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Plan = Mikpoly_fault.Plan
module Tm = Mikpoly_telemetry

(* Always-on fleet metrics, alongside the serve.* family. The replica
   gauge uses the lock-free relative adjustment so concurrent fleets in
   one process never lose a +1/-1. *)
let m_steps = Tm.Metrics.counter "fleet.steps"

let m_completed = Tm.Metrics.counter "fleet.completed"

let m_dropped = Tm.Metrics.counter "fleet.dropped"

let m_warm_hits = Tm.Metrics.counter "fleet.warm.hits"

let m_warm_compiles = Tm.Metrics.counter "fleet.warm.compiles"

let m_scale_ups = Tm.Metrics.counter "fleet.scale.ups"

let m_scale_downs = Tm.Metrics.counter "fleet.scale.downs"

let m_crashes = Tm.Metrics.counter "fleet.crashes"

let g_replicas = Tm.Metrics.gauge "fleet.replicas"

type warm_config = {
  warm_top_k : int;
  warm_interval : float;
  warm_half_life : float;
  warm_capacity : int;
}

let default_warm =
  {
    warm_top_k = 8;
    warm_interval = 0.25;
    warm_half_life = 1.0;
    warm_capacity = 4096;
  }

type config = {
  replicas : int;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
  coalesce : bool;
  steal_age : float;
  warm : warm_config option;
  autoscale : Autoscaler.config option;
  ratelimit : Ratelimit.config option;
}

let validate config =
  if config.replicas < 1 then invalid_arg "Fleet: replicas must be >= 1";
  (match config.ratelimit with
  | Some rl -> Ratelimit.validate rl
  | None -> ());
  if config.cache_capacity < 0 then
    invalid_arg "Fleet: negative cache capacity";
  if config.steal_age < 0. then invalid_arg "Fleet: steal_age must be >= 0";
  (match config.warm with
  | Some w ->
    if w.warm_top_k < 0 then invalid_arg "Fleet: warm_top_k must be >= 0";
    if w.warm_interval <= 0. then
      invalid_arg "Fleet: warm_interval must be > 0";
    if w.warm_half_life <= 0. then
      invalid_arg "Fleet: warm_half_life must be > 0";
    if w.warm_capacity < 0 then
      invalid_arg "Fleet: warm_capacity must be >= 0"
  | None -> ());
  match config.autoscale with
  | Some a -> Autoscaler.validate a
  | None -> ()

type tier_metrics = {
  tm_tier : Tenant.tier;
  tm_requests : int;
  tm_completed : int;
  tm_slo_met : int;
  tm_attainment : float;
}

type outcome = {
  completed : Sch.completed list;
  dropped : Request.t list;
  rate_limited : Request.t list;
  steps : int;
  makespan : float;
  compile_stall_seconds : float;
  actual_tokens : int;
  padded_tokens : int;
  cache : Shape_cache.stats list;
  warm_stats : Shape_cache.stats option;
  warm_hits : int;
  warm_compiles : int;
  warm_background_seconds : float;
  coalesced_groups : int;
  queue_depth_sum : int;
  queue_samples : int;
  crashes : int;
  injected_faults : int;
  requeues : int;
  scale_ups : int;
  scale_downs : int;
  peak_replicas : int;
  replica_seconds : float;
  lanes : Wfq.lane_stats list;
  tiers : tier_metrics list;
}

let slo_met = Event_loop.slo_met

let tier_metrics trace completed =
  (* per tier: requests, completed, SLO met *)
  let tally = List.map (fun t -> (t, (ref 0, ref 0, ref 0))) Tenant.tiers in
  List.iter
    (fun (tg : Tenant.tagged) ->
      let reqs, _, _ = List.assoc tg.Tenant.tenant.Tenant.tier tally in
      incr reqs)
    trace;
  let tenant_of = Tenant.lookup trace in
  List.iter
    (fun (c : Sch.completed) ->
      let tier = (tenant_of c.Sch.request.Request.id).Tenant.tier in
      let _, comps, met = List.assoc tier tally in
      incr comps;
      if slo_met c then incr met)
    completed;
  List.map
    (fun (tier, (reqs, comps, met)) ->
      {
        tm_tier = tier;
        tm_requests = !reqs;
        tm_completed = !comps;
        tm_slo_met = !met;
        tm_attainment =
          (if !reqs = 0 then 1. else float_of_int !met /. float_of_int !reqs);
      })
    tally

let to_scheduler_outcome (o : outcome) : Sch.outcome =
  {
    Sch.completed = o.completed;
    dropped = o.dropped;
    rejected = List.map (fun r -> (r, "rate-limited")) o.rate_limited;
    timed_out = [];
    failed = [];
    steps = o.steps;
    makespan = o.makespan;
    compile_stall_seconds = o.compile_stall_seconds;
    adapt_stall_seconds = 0.;
    actual_tokens = o.actual_tokens;
    padded_tokens = o.padded_tokens;
    cache = o.cache;
    queue_depth_sum = o.queue_depth_sum;
    queue_samples = o.queue_samples;
    retries = o.requeues;
    crashes = o.crashes;
    injected_faults = o.injected_faults;
  }

module L = Event_loop

(* A fleet is a one-class run of the serving event loop: its planes are
   the learned warm store (arrival learning plus a periodic background
   refresh), owner affinity for coalesced groups, and the autoscaler
   tick. It places nothing, so no router view is ever built. *)
let run ?(faults = Plan.none) config engine trace =
  validate config;
  let max_slots, init_active =
    match config.autoscale with
    | Some a ->
      ( max config.replicas a.Autoscaler.max_replicas,
        max a.Autoscaler.min_replicas
          (min config.replicas a.Autoscaler.max_replicas) )
    | None -> (config.replicas, config.replicas)
  in
  (* Warm-store admission is mass-aware, not LRU: a warm entry's weight
     is its bucket's decayed learner mass at the moment an admission
     decision is made, so a scan of cold buckets churns among the cold
     entries and can never evict a heavy-tail tenant's hot bucket.
     [warm_sig] remembers which bucket produced each warm shape, filled
     wherever the engine expands a bucket into step shapes. *)
  let warm_sig : (Shape_cache.key, int) Hashtbl.t = Hashtbl.create 64 in
  let engine =
    {
      engine with
      Sch.step_shapes =
        (fun ~tokens ->
          let shapes = engine.Sch.step_shapes ~tokens in
          List.iter
            (fun (shape, _) -> Hashtbl.replace warm_sig shape tokens)
            shapes;
          shapes);
    }
  in
  let k =
    L.create ~faults ?ratelimit:config.ratelimit ~batcher:config.batcher
      ~bucketing:config.bucketing ~cache_capacity:config.cache_capacity
      ~coalesce:config.coalesce ~classes:[ (engine, max_slots) ] trace
  in
  let c = k.L.classes.(0) in
  let slots = c.L.c_slots in
  Array.iteri (fun i s -> s.L.sl_active <- i < init_active) slots;
  Tm.Metrics.gauge_add g_replicas (float_of_int init_active);
  let warm =
    Option.map
      (fun w -> (w, Learner.create ~half_life:w.warm_half_life ()))
      config.warm
  in
  (* The class store is the warm store. Its weight is read at admission
     time, i.e. at the event that publishes or refreshes — the loop's
     current event clock. Without the warm plane it holds nothing, so
     every replica miss compiles on-path. *)
  c.L.c_store <-
    (match warm with
    | Some (w, l) ->
      let weight shape =
        match Hashtbl.find_opt warm_sig shape with
        | Some s -> Learner.mass l ~now:k.L.now ~signature:s
        | None -> 0.
      in
      Shape_cache.create_weighted ~weight ~capacity:w.warm_capacity
    | None -> Shape_cache.create ~capacity:0);
  let warm_compiles = ref 0 in
  let warm_bg_clock = ref 0. in
  let warm_bg_seconds = ref 0. in
  let refresh w l ws ~now =
    let top = Learner.top_k l ~now ~k:w.warm_top_k in
    let shapes_of (signature, _) = engine.Sch.step_shapes ~tokens:signature in
    (* Batch prewarm (wall clock only): every shape this refresh will
       compile goes through one coarse batched search, so the modeled
       [compile_seconds] lookups below are memo hits. The simulated
       event-clock math is unchanged — the background worker still
       charges each shape's modeled cost serially on its own clock. *)
    let missing =
      List.concat_map
        (fun top ->
          List.filter_map
            (fun (shape, _) ->
              if Shape_cache.mem ws shape then None else Some shape)
            (shapes_of top))
        top
    in
    if missing <> [] then ignore (engine.Sch.precompile_batch ~jobs:0 missing);
    List.iter
      (fun top ->
        List.iter
          (fun (shape, _) ->
            if not (Shape_cache.mem ws shape) then begin
              (* One background worker compiles serially, off every
                 replica's critical path; the program only becomes warm
                 once its compile finishes on that clock. *)
              let cost = engine.Sch.compile_seconds shape in
              warm_bg_clock := Float.max !warm_bg_clock now +. cost;
              warm_bg_seconds := !warm_bg_seconds +. cost;
              Shape_cache.add ws shape !warm_bg_clock;
              incr warm_compiles;
              Tm.Metrics.incr m_warm_compiles
            end)
          (shapes_of top))
      top
  in
  (* Coalescing affinity: which slot last led a group for a signature.
     A signature stays sticky to its owner until the owner retires or a
     head request ages past [steal_age]. Affinity never un-work-conserves
     the fleet: a busy or down owner is stolen from immediately; only an
     idle, live owner — about to take the request itself — is deferred
     to, and at most until the request ages past [steal_age]. *)
  let owner : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let affinity =
    {
      L.lead_time =
        (fun s ~aged tg ->
          match Hashtbl.find_opt owner (L.signature k tg) with
          | Some i when slots.(i).L.sl_active && i <> s.L.sl_idx ->
            let o = slots.(i) in
            if o.L.sl_act <> [] || o.L.sl_down_until > aged then aged
            else
              Float.max aged (tg.Tenant.req.Request.arrival +. config.steal_age)
          | _ -> aged);
      claim =
        (fun s leader ->
          Hashtbl.replace owner (L.signature k leader) s.L.sl_idx);
    }
  in
  let spawned = Array.make max_slots 0. in
  let scale_ups = ref 0 in
  let scale_downs = ref 0 in
  let replica_acc = ref 0. in
  let peak = ref init_active in
  let last_change = ref 0. in
  let active_slots () =
    List.filter (fun s -> s.L.sl_active) (Array.to_list slots)
  in
  let spawn ~now =
    match List.find_opt (fun s -> not s.L.sl_active) (Array.to_list slots) with
    | None -> false
    | Some s ->
      s.L.sl_active <- true;
      spawned.(s.L.sl_idx) <- now;
      s.L.sl_clock <- now;
      s.L.sl_down_until <- 0.;
      s.L.sl_cache <- Shape_cache.create ~capacity:config.cache_capacity;
      incr scale_ups;
      Tm.Metrics.incr m_scale_ups;
      Tm.Metrics.gauge_add g_replicas 1.;
      peak := max !peak (List.length (active_slots ()));
      true
  in
  let retire ~now =
    (* Retire the youngest idle, healthy replica; if every replica is
       busy or down, hold — never kill in-flight work for efficiency. *)
    match
      List.rev
        (List.filter
           (fun s -> s.L.sl_act = [] && s.L.sl_down_until <= now)
           (active_slots ()))
    with
    | [] -> false
    | s :: _ ->
      s.L.sl_active <- false;
      replica_acc := !replica_acc +. (now -. spawned.(s.L.sl_idx));
      c.L.c_retired <- Shape_cache.stats s.L.sl_cache :: c.L.c_retired;
      s.L.sl_cache <- Shape_cache.create ~capacity:config.cache_capacity;
      incr scale_downs;
      Tm.Metrics.incr m_scale_downs;
      Tm.Metrics.gauge_add g_replicas (-1.);
      true
  in
  let tick a ~now =
    let live, down =
      List.partition (fun s -> s.L.sl_down_until <= now) (active_slots ())
    in
    let n_live = max 1 (List.length live) in
    let resolved = Hashtbl.length k.L.statuses in
    let signal =
      {
        Autoscaler.queue_depth =
          float_of_int (Wfq.length c.L.c_q) /. float_of_int n_live;
        slo_attainment =
          (if resolved = 0 then 1.
           else float_of_int k.L.met /. float_of_int resolved);
        stall_ratio =
          (if now <= 0. then 0.
           else k.L.stall_total /. (now *. float_of_int n_live));
        live_replicas = List.length live;
        down_replicas = List.length down;
      }
    in
    match Autoscaler.decide a ~last_change:!last_change ~now signal with
    | Autoscaler.Hold -> ()
    | Autoscaler.Scale_up -> if spawn ~now then last_change := now
    | Autoscaler.Scale_down -> if retire ~now then last_change := now
  in
  L.run k
    ?learn:
      (Option.map
         (fun (_, l) ~now (tg : Tenant.tagged) ->
           (* Only admitted traffic trains the warm store. *)
           Learner.observe l ~now ~tenant:tg.Tenant.tenant.Tenant.tenant_id
             ~signature:(L.signature k tg)
             ~weight:
               (float_of_int (Tenant.weight tg.Tenant.tenant.Tenant.tier)))
         warm)
    ?affinity:(if config.coalesce then Some affinity else None)
    ?refresh:
      (Option.map
         (fun (w, l) ->
           L.periodic k ~interval:w.warm_interval (refresh w l c.L.c_store))
         warm)
    ?tick:
      (Option.map
         (fun a -> L.periodic k ~interval:a.Autoscaler.interval (tick a))
         config.autoscale);
  let actives = active_slots () in
  let replica_seconds =
    !replica_acc
    +. List.fold_left
         (fun acc s ->
           acc +. Float.max 0. (k.L.makespan -. spawned.(s.L.sl_idx)))
         0. actives
  in
  Tm.Metrics.gauge_add g_replicas (-.float_of_int (List.length actives));
  let completed = List.rev k.L.completed in
  let dropped = List.rev k.L.dropped in
  (* The kernel keeps the counts; publish this run's totals. *)
  Tm.Metrics.add m_steps c.L.c_steps;
  Tm.Metrics.add m_completed (List.length completed);
  Tm.Metrics.add m_dropped (List.length dropped);
  Tm.Metrics.add m_warm_hits c.L.c_store_hits;
  Tm.Metrics.add m_crashes k.L.crashes;
  {
    completed;
    dropped;
    rate_limited = List.rev k.L.rate_limited;
    steps = c.L.c_steps;
    makespan = k.L.makespan;
    compile_stall_seconds = k.L.stall_total;
    actual_tokens = k.L.actual_tokens;
    padded_tokens = k.L.padded_tokens;
    cache = L.class_caches c;
    warm_stats =
      Option.map (fun _ -> Shape_cache.stats c.L.c_store) config.warm;
    warm_hits = c.L.c_store_hits;
    warm_compiles = !warm_compiles;
    warm_background_seconds = !warm_bg_seconds;
    coalesced_groups = k.L.coalesced_groups;
    queue_depth_sum = k.L.qsum;
    queue_samples = k.L.qsamples;
    crashes = k.L.crashes;
    injected_faults = k.L.injected;
    requeues = k.L.requeues;
    scale_ups = !scale_ups;
    scale_downs = !scale_downs;
    peak_replicas = !peak;
    replica_seconds;
    lanes = Wfq.stats c.L.c_q;
    tiers = tier_metrics trace completed;
  }
