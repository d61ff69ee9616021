module Sch = Mikpoly_serve.Scheduler
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Tenant = Mikpoly_fleet.Tenant
module Wfq = Mikpoly_fleet.Wfq
module Ratelimit = Mikpoly_fleet.Ratelimit
module Fleet = Mikpoly_fleet.Fleet
module Plan = Mikpoly_fault.Plan
module Checksum = Mikpoly_util.Checksum
module Tm = Mikpoly_telemetry

(* Always-on hetero metrics, alongside the fleet.* family. *)
let m_routed = Tm.Metrics.counter "hetero.routed"

let m_reroutes = Tm.Metrics.counter "hetero.reroutes"

let m_trips = Tm.Metrics.counter "hetero.trips"

let m_hedges = Tm.Metrics.counter "hetero.hedges"

type hedge_config = {
  hedge_tiers : Tenant.tier list;
  hedge_slack : float;
}

let default_hedge = { hedge_tiers = [ Tenant.Gold ]; hedge_slack = 0.5 }

type config = {
  backends : Backend.t list;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
  coalesce : bool;
  health : Health.config;
  degraded_max_tokens : int;
  hedge : hedge_config option;
  failover : bool;
  ratelimit : Ratelimit.config option;
}

let validate config =
  if config.backends = [] then invalid_arg "Hetero: no backends";
  if config.cache_capacity < 0 then
    invalid_arg "Hetero: negative cache capacity";
  if config.degraded_max_tokens < 1 then
    invalid_arg "Hetero: degraded_max_tokens must be >= 1";
  Health.validate config.health;
  (match config.hedge with
  | Some h ->
    if h.hedge_slack <= 0. || h.hedge_slack > 1. then
      invalid_arg "Hetero: hedge_slack must be in (0, 1]";
    if h.hedge_tiers = [] then invalid_arg "Hetero: empty hedge_tiers"
  | None -> ());
  match config.ratelimit with
  | Some rl -> Ratelimit.validate rl
  | None -> ()

type status = Mikpoly_fleet.Event_loop.status =
  | Completed
  | Dropped
  | Rate_limited

let status_name = function
  | Completed -> "completed"
  | Dropped -> "dropped"
  | Rate_limited -> "rate-limited"

type class_stats = {
  cs_backend : string;
  cs_kind : string;
  cs_fingerprint : string;
  cs_replicas : int;
  cs_pes : int;
  cs_routed : int;
  cs_completed : int;
  cs_steps : int;
  cs_stall_seconds : float;
  cs_service_seconds : float;
  cs_requeues : int;
  cs_reroutes_out : int;
  cs_reroutes_in : int;
  cs_hedges_in : int;
  cs_forced : int;
  cs_probes : int;
  cs_trips : int;
  cs_drains : int;
  cs_brownout_steps : int;
  cs_degraded_entries : int;
  cs_level_transitions : int;
  cs_final_level : string;
  cs_cache : Shape_cache.stats list;
  cs_store : Shape_cache.stats;
}

type outcome = {
  o_completed : Sch.completed list;
  o_dropped : Request.t list;
  o_rate_limited : Request.t list;
  o_steps : int;
  o_makespan : float;
  o_stall_seconds : float;
  o_actual_tokens : int;
  o_padded_tokens : int;
  o_queue_depth_sum : int;
  o_queue_samples : int;
  o_crashes : int;
  o_injected_faults : int;
  o_requeues : int;
  o_reroutes : int;
  o_hedges : int;
  o_hedge_cancels : int;
  o_classes : class_stats list;
  o_tiers : Fleet.tier_metrics list;
  o_statuses : (Request.t * status) list;
  o_status_digest : string;
  o_conserved : bool;
}

module L = Mikpoly_fleet.Event_loop

module Hedge_index = struct
  module M = Map.Make (struct
    type t = float * int

    let compare (a, i) (b, j) =
      match Float.compare a b with 0 -> Int.compare i j | c -> c
  end)

  type 'a t = 'a M.t

  let empty = M.empty

  let add ~at ~id v t = M.add (at, id) v t

  let mem ~at ~id t = M.mem (at, id) t

  (* Walk up from the earliest key, dropping invalid entries. Every
     valid entry due by [floor] fires at [floor], so among those the
     lowest id wins; with none due, the first valid entry does. *)
  let next ~floor ~valid t =
    let rec scan t best seq =
      match seq () with
      | Seq.Cons ((((at, id) as key), v), rest)
        when at <= floor || Option.is_none best ->
        if not (valid id v) then scan (M.remove key t) best rest
        else if at > floor then (Some (at, id, v), t)
        else
          let best =
            match best with
            | Some (_, bid, _) when bid < id -> best
            | _ -> Some (floor, id, v)
          in
          scan t best rest
      | _ -> (best, t)
    in
    scan t None (M.to_seq t)
end

(* Per-class state of the placement, health and hedge planes; the event
   loop's own class record carries the queue, slots and program store.
   A class store is never shared fleet-wide: the other device class has
   a different fingerprint and different micro-kernels. *)
type plane = {
  p_backend : Backend.t;
  p_health : Health.t;
  mutable p_routed : int;
  mutable p_rr_out : int;
  mutable p_rr_in : int;
  mutable p_hedges_in : int;
  mutable p_forced : int;
  mutable p_drains : int;
}

let run ?(faults = Plan.none) config trace =
  validate config;
  (* Hedged dispatch: a gold-tier request still queued at
     [arrival + slack · TTFT-budget] gets a clone on the best other
     class; the first copy to reach an admission grant wins. Candidates
     enter the index whenever a hedge-tier request that was never
     hedged enters a class queue, keyed by that instant and request id
     with the class they sit in, and are checked lazily when the timer
     peeks: a candidate that is running, hedged or resolved is
     dropped. A request that was never hedged has exactly one copy, so
     one that is not running is queued, on the class it last entered.
     The hedge instant never precedes an event already handled. *)
  let hedging =
    match config.hedge with
    | Some h when config.failover && List.length config.backends > 1 -> Some h
    | _ -> None
  in
  let hedged : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let index = ref Hedge_index.empty in
  let on_enqueue =
    Option.map
      (fun h (c : L.cls) (tg : Tenant.tagged) ->
        let req = tg.Tenant.req in
        if
          List.mem tg.Tenant.tenant.Tenant.tier h.hedge_tiers
          && not (Hashtbl.mem hedged req.Request.id)
        then
          index :=
            Hedge_index.add
              ~at:
                (req.Request.arrival
                +. (h.hedge_slack *. req.Request.slo.Request.ttft))
              ~id:req.Request.id (c, tg) !index)
      hedging
  in
  let k =
    L.create ~faults ?ratelimit:config.ratelimit ?on_enqueue
      ~batcher:config.batcher
      ~bucketing:config.bucketing ~cache_capacity:config.cache_capacity
      ~coalesce:config.coalesce ~classes:
        (List.map
           (fun (b : Backend.t) -> (b.Backend.bk_engine, b.Backend.bk_replicas))
           config.backends)
      trace
  in
  let classes = k.L.classes in
  let planes =
    Array.map
      (fun b ->
        {
          p_backend = b;
          p_health = Health.create config.health;
          p_routed = 0;
          p_rr_out = 0;
          p_rr_in = 0;
          p_hedges_in = 0;
          p_forced = 0;
          p_drains = 0;
        })
      (Array.of_list config.backends)
  in
  let plane_of (c : L.cls) = planes.(c.L.c_idx) in
  (* Snapshot one class for the router: predicted service for this
     bucketed shape, recompile-on-arrival cost for the shapes missing
     from the class store, live backlog, and the health verdict (the
     no-failover arm routes health-blind — its whole point). *)
  let view_of ~now ~btokens (c : L.cls) =
    let p = plane_of c in
    let engine = c.L.c_engine in
    let service = engine.Sch.step_seconds ~tokens:btokens ~kv_tokens:0 in
    let cold =
      List.fold_left
        (fun acc ((shape : Shape_cache.key), _) ->
          if Shape_cache.mem c.L.c_store shape then acc
          else acc +. engine.Sch.compile_seconds shape)
        0.
        (engine.Sch.step_shapes ~tokens:btokens)
    in
    let backlog =
      L.fold_work k c
        (fun sg n acc ->
          let step = engine.Sch.step_seconds ~tokens:sg ~kv_tokens:0 in
          acc +. (float_of_int n *. step))
        0.
    in
    {
      Router.cv_class = c.L.c_idx;
      cv_level =
        (if config.failover then Health.level p.p_health else Health.Healthy);
      cv_probe_ready = config.failover && Health.probe_ready p.p_health ~now;
      cv_replicas = p.p_backend.Backend.bk_replicas;
      cv_queue = Wfq.length c.L.c_q;
      cv_inflight = L.inflight c;
      cv_service = service;
      cv_cold_compile = cold;
      cv_backlog = backlog;
    }
  in
  let route ~now ~exclude (tg : Tenant.tagged) =
    let b = L.signature k tg in
    let views =
      Array.to_list classes
      |> List.filter (fun (c : L.cls) -> Some c.L.c_idx <> exclude)
      |> List.map (view_of ~now ~btokens:b)
    in
    Router.route ~degraded_max_tokens:config.degraded_max_tokens
      ~ttft_budget:tg.Tenant.req.Request.slo.Request.ttft ~tokens:b views
  in
  let place ~now (d : Router.decision) =
    let c = classes.(d.Router.d_class) in
    let p = plane_of c in
    if d.Router.d_probe then ignore (Health.admit_probe p.p_health ~now);
    if d.Router.d_forced then p.p_forced <- p.p_forced + 1;
    p.p_routed <- p.p_routed + 1;
    Tm.Metrics.incr m_routed;
    c
  in
  let hedge_to (c : L.cls) (tg : Tenant.tagged) ~now =
    let req = tg.Tenant.req in
    Hashtbl.replace hedged req.Request.id ();
    let d = route ~now ~exclude:(Some c.L.c_idx) tg in
    if not d.Router.d_forced then begin
      (* Only hedge onto a class willing to take the shape — a forced
         fallback would just double the load on a sick fleet. *)
      let tgt = place ~now d in
      L.add_copy k req.Request.id;
      (plane_of tgt).p_hedges_in <- (plane_of tgt).p_hedges_in + 1;
      Tm.Metrics.incr m_hedges;
      L.push k tgt tg
    end
  in
  let valid id _ =
    not
      (Hashtbl.mem hedged id || Hashtbl.mem k.L.running id
     || Hashtbl.mem k.L.statuses id)
  in
  let hedge =
    Option.map
      (fun _ ->
        let floor_now = ref 0. and found = ref None in
        {
          L.next =
            (fun () ->
              floor_now := Float.max !floor_now k.L.now;
              let next, rest =
                Hedge_index.next ~floor:!floor_now ~valid !index
              in
              index := rest;
              found := next;
              Option.map (fun (t, _, _) -> t) next);
          fire =
            (fun ~now ->
              Option.iter (fun (_, _, (c, tg)) -> hedge_to c tg ~now) !found);
        })
      hedging
  in
  (* Breaker trip: drain the whole class — every replica's in-flight
     batch back through [push_front] (they were already admitted once),
     then the waiting queue in WFQ order — onto the least-loaded
     surviving class. Recompile-on-arrival is charged there naturally,
     as ordinary class-store misses on the event clock. *)
  let drain (c : L.cls) =
    let p = plane_of c in
    p.p_drains <- p.p_drains + 1;
    Tm.Metrics.incr m_trips;
    let target =
      Array.fold_left
        (fun best (o : L.cls) ->
          if o.L.c_idx = c.L.c_idx then best
          else
            let evicted =
              config.failover
              && Health.level (plane_of o).p_health = Health.Evicted
            in
            let load = Wfq.length o.L.c_q + L.inflight o in
            match best with
            | Some (bev, bl, _) when (bev, bl) <= (evicted, load) -> best
            | _ -> Some (evicted, load, o))
        None classes
    in
    match target with
    | None ->
      (* Single-class fleet: nothing to fail over to — bounce in-flight
         work back to the class's own lanes. *)
      Array.iter (L.requeue k c) c.L.c_slots
    | Some (_, _, tgt) ->
      let moved n =
        p.p_rr_out <- p.p_rr_out + n;
        (plane_of tgt).p_rr_in <- (plane_of tgt).p_rr_in + n;
        Tm.Metrics.add m_reroutes n
      in
      Array.iter (fun s -> moved (L.bounce k c s ~into:tgt)) c.L.c_slots;
      moved (L.transfer k ~src:c ~into:tgt)
  in
  L.run k ?hedge
    ~route:(fun ~now tg -> place ~now (route ~now ~exclude:None tg))
    (* Health sees every step, in both arms — the no-failover arm records
       the same trips, it just never acts on them. On the trip edge the
       failed batch and everything else the class holds drains to the
       surviving class. *)
    ~health:(fun c ~now ~slowdown ~failed ->
      let verdict =
        Health.observe (plane_of c).p_health ~now ~slowdown ~failed
      in
      let trip = failed && config.failover && verdict = `Tripped in
      if trip then drain c;
      trip);
  let completed = List.rev k.L.completed in
  let dropped = List.rev k.L.dropped in
  let rate_limited = List.rev k.L.rate_limited in
  let sum f = Array.fold_left (fun n p -> n + f p) 0 planes in
  let class_stats =
    Array.to_list classes
    |> List.map (fun (c : L.cls) ->
           let p = plane_of c in
           let b = p.p_backend in
           let bstats = Health.breaker_stats p.p_health in
           {
             cs_backend = b.Backend.bk_name;
             cs_kind = Backend.kind_name b.Backend.bk_kind;
             cs_fingerprint = b.Backend.bk_fingerprint;
             cs_replicas = b.Backend.bk_replicas;
             cs_pes = b.Backend.bk_replicas * b.Backend.bk_pes;
             cs_routed = p.p_routed;
             cs_completed = c.L.c_completed;
             cs_steps = c.L.c_steps;
             cs_stall_seconds = c.L.c_stall;
             cs_service_seconds = c.L.c_service;
             cs_requeues = c.L.c_requeues;
             cs_reroutes_out = p.p_rr_out;
             cs_reroutes_in = p.p_rr_in;
             cs_hedges_in = p.p_hedges_in;
             cs_forced = p.p_forced;
             cs_probes = bstats.Mikpoly_fault.Breaker.probes;
             cs_trips = bstats.Mikpoly_fault.Breaker.trips;
             cs_drains = p.p_drains;
             cs_brownout_steps = c.L.c_brownout_steps;
             cs_degraded_entries = Health.degraded_entries p.p_health;
             cs_level_transitions = Health.transitions p.p_health;
             cs_final_level = Health.level_name (Health.level p.p_health);
             cs_cache = L.class_caches c;
             cs_store = Shape_cache.stats c.L.c_store;
           })
  in
  let status_pairs =
    List.filter_map
      (fun (tg : Tenant.tagged) ->
        match Hashtbl.find_opt k.L.statuses tg.Tenant.req.Request.id with
        | Some st -> Some (tg.Tenant.req, st)
        | None -> None)
      trace
  in
  let digest =
    List.map
      (fun ((req : Request.t), st) ->
        string_of_int req.Request.id ^ "=" ^ status_name st)
      status_pairs
    |> List.sort compare |> String.concat "\n" |> Checksum.fnv1a64_hex
  in
  let n = List.length trace in
  {
    o_completed = completed;
    o_dropped = dropped;
    o_rate_limited = rate_limited;
    o_steps = Array.fold_left (fun n c -> n + c.L.c_steps) 0 classes;
    o_makespan = k.L.makespan;
    o_stall_seconds = k.L.stall_total;
    o_actual_tokens = k.L.actual_tokens;
    o_padded_tokens = k.L.padded_tokens;
    o_queue_depth_sum = k.L.qsum;
    o_queue_samples = k.L.qsamples;
    o_crashes = k.L.crashes;
    o_injected_faults = k.L.injected;
    o_requeues = k.L.requeues;
    o_reroutes = sum (fun p -> p.p_rr_out);
    o_hedges = sum (fun p -> p.p_hedges_in);
    o_hedge_cancels = k.L.cancels;
    o_classes = class_stats;
    o_tiers = Fleet.tier_metrics trace completed;
    o_statuses = status_pairs;
    o_status_digest = digest;
    o_conserved =
      List.length status_pairs = n
      && List.length completed + List.length dropped + List.length rate_limited
         = n
      && Hashtbl.length k.L.statuses = n;
  }

let to_scheduler_outcome (o : outcome) : Sch.outcome =
  {
    Sch.completed = o.o_completed;
    dropped = o.o_dropped;
    rejected = List.map (fun r -> (r, "rate-limited")) o.o_rate_limited;
    timed_out = [];
    failed = [];
    steps = o.o_steps;
    makespan = o.o_makespan;
    compile_stall_seconds = o.o_stall_seconds;
    adapt_stall_seconds = 0.;
    actual_tokens = o.o_actual_tokens;
    padded_tokens = o.o_padded_tokens;
    cache = List.concat_map (fun cs -> cs.cs_cache) o.o_classes;
    queue_depth_sum = o.o_queue_depth_sum;
    queue_samples = o.o_queue_samples;
    retries = o.o_requeues;
    crashes = o.o_crashes;
    injected_faults = o.o_injected_faults;
  }

let cache_labels (o : outcome) =
  List.concat_map
    (fun cs ->
      let live =
        List.init cs.cs_replicas (fun i ->
            cs.cs_backend ^ "-" ^ string_of_int i)
      in
      let retired = List.length cs.cs_cache - cs.cs_replicas in
      live
      @ List.init (max 0 retired) (fun i ->
            "crashed-" ^ cs.cs_backend ^ "-" ^ string_of_int i))
    o.o_classes

let class_stalls (o : outcome) =
  List.map (fun cs -> (cs.cs_backend, cs.cs_stall_seconds)) o.o_classes
