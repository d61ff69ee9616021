(* Multi-tenant continuous-batching fleet (lib/fleet) vs the
   single-tenant scheduler on the same heavy-tail multi-tenant trace at
   equal replicas, plus the fleet's internal ablation ladder:

     baseline   Scheduler.run, tenant-blind FIFO per replica
     wfq        fleet event loop, weighted fair queueing only
     coalesce   + shape-aware group admission (one compile per group)
     full       + learned warm store (top-K precompiled off-path)
     static     full + fault plan on a larger pinned fleet
     auto       the same, with the telemetry-driven autoscaler

   The acceptance gates are hard claims of the subsystem: the full
   fleet strictly beats the baseline scheduler's goodput, no tier is
   starved and attainment respects the tier order, coalescing strictly
   cuts compile stalls vs plain WFQ, and the autoscaler holds SLO
   within tolerance of the pinned fleet at strictly fewer
   replica-seconds. *)

open Mikpoly_util
open Mikpoly_serve
module F = Mikpoly_fleet.Fleet
module Tenant = Mikpoly_fleet.Tenant
module Autoscaler = Mikpoly_fleet.Autoscaler
module Wfq = Mikpoly_fleet.Wfq
module Plan = Mikpoly_fault.Plan
module Mix = Mikpoly_workloads.Serving_mix

let replicas = 2

let static_replicas = 4

let max_batch = 8

let bucketing = Bucketing.Pow2

let cache_capacity = 64

let slo_tolerance = 0.1

let tier_of_name name =
  match List.find_opt (fun t -> Tenant.tier_name t = name) Tenant.tiers with
  | Some t -> t
  | None -> invalid_arg ("exp_fleet: unknown tier " ^ name)

(* Rates are scaled well past the 2-replica service capacity so the
   fleet runs at overload — the regime where admission order, compile
   stalls and shedding decide goodput, and where the paper's serving
   argument (amortize compilation across the stream) actually bites. *)
let specs ~quick =
  let total = if quick then 48 else 144 in
  List.mapi
    (fun i ((row : Mix.tenant_row), count) ->
      {
        Tenant.tenant =
          {
            Tenant.tenant_id = i;
            tenant_name = row.Mix.mix_name;
            tier = tier_of_name row.Mix.mix_tier;
          };
        rate = row.Mix.mix_rate *. (if quick then 10. else 5.);
        count;
      })
    (Mix.counts ~total)

let trace ~quick =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~ttft_budget:0.02
    ~seed:(Prng.default_seed ~fallback:0xF1EE7 ())
    ~max_prompt:(if quick then 64 else 256)
    ~max_output:(if quick then 8 else 16)
    (specs ~quick) ()

let fleet_config ?(coalesce = false) ?warm ?autoscale ?ratelimit ~replicas () =
  {
    F.replicas;
    batcher = Batcher.Slo_aware { max_batch };
    bucketing;
    cache_capacity;
    coalesce;
    steal_age = 0.004;
    warm;
    autoscale;
    ratelimit;
  }

let warm_config ~quick =
  {
    F.default_warm with
    warm_top_k = (if quick then 4 else 8);
    warm_interval = 0.02;
  }

let autoscale_config =
  {
    Autoscaler.default with
    Autoscaler.min_replicas = 1;
    max_replicas = static_replicas;
    up_queue_depth = 1.5;
    down_queue_depth = 0.25;
    cooldown = 0.05;
    interval = 0.025;
  }

(* The fault plan both fault arms absorb: two crashes inside the busy
   span of the trace. [clamp_crashes] refits the schedule to the pinned
   fleet size so the static and autoscaled arms face identical events. *)
let fault_plan =
  Plan.clamp_crashes
    (Plan.make
       ~crashes:[ (0.4, 1); (0.9, 2) ]
       ~restart_delay:0.15
       ~seed:(Prng.default_seed ~fallback:0xF1EE7 ())
       ())
    ~replicas:static_replicas

type results = {
  r_quick : bool;
  r_trace : Tenant.tagged list;
  r_baseline : Metrics.t;
  r_wfq : F.outcome;
  r_coalesce : F.outcome;
  r_full : F.outcome;
  r_static : F.outcome;
  r_auto : F.outcome;
}

let metrics o = Metrics.of_outcome (F.to_scheduler_outcome o)

let results ~quick compiler =
  let engine = Scheduler.mikpoly_engine compiler in
  let tagged = trace ~quick in
  let baseline =
    Scheduler.run
      { Scheduler.replicas; batcher = Batcher.Slo_aware { max_batch };
        bucketing; cache_capacity }
      engine (Tenant.requests tagged)
  in
  let warm = warm_config ~quick in
  let run config = F.run config engine tagged in
  let run_faulted config = F.run ~faults:fault_plan config engine tagged in
  {
    r_quick = quick;
    r_trace = tagged;
    r_baseline = Metrics.of_outcome baseline;
    r_wfq = run (fleet_config ~replicas ());
    r_coalesce = run (fleet_config ~coalesce:true ~replicas ());
    r_full = run (fleet_config ~coalesce:true ~warm ~replicas ());
    r_static =
      run_faulted
        (fleet_config ~coalesce:true ~warm ~replicas:static_replicas ());
    r_auto =
      run_faulted
        (fleet_config ~coalesce:true ~warm ~autoscale:autoscale_config
           ~replicas ());
  }

(* --- Acceptance gates (shared by the CLI subcommand and the bench) --- *)

let attainment r tier =
  match
    List.find_opt (fun tm -> tm.F.tm_tier = tier) r.F.tiers
  with
  | Some tm -> tm.F.tm_attainment
  | None -> 0.

let gates r =
  let m_full = metrics r.r_full in
  let m_static = metrics r.r_static in
  let m_auto = metrics r.r_auto in
  let gold = attainment r.r_full Tenant.Gold in
  let silver = attainment r.r_full Tenant.Silver in
  let be = attainment r.r_full Tenant.Best_effort in
  [
    {
      Gate.name = "fleet_goodput_beats_baseline";
      ok = m_full.Metrics.goodput_rps > r.r_baseline.Metrics.goodput_rps;
      detail =
        Printf.sprintf "fleet %.3f req/s vs scheduler %.3f req/s (equal replicas)"
          m_full.Metrics.goodput_rps r.r_baseline.Metrics.goodput_rps;
    };
    {
      Gate.name = "no_tier_starved";
      ok = gold > 0. && silver > 0. && be > 0.;
      detail =
        Printf.sprintf "attainment gold %.3f / silver %.3f / best-effort %.3f"
          gold silver be;
    };
    {
      Gate.name = "tier_order_respected";
      ok = gold >= silver && silver >= be;
      detail =
        Printf.sprintf "gold %.3f >= silver %.3f >= best-effort %.3f" gold
          silver be;
    };
    {
      Gate.name = "coalescing_cuts_stalls";
      ok =
        r.r_coalesce.F.compile_stall_seconds
        < r.r_wfq.F.compile_stall_seconds;
      detail =
        Printf.sprintf "coalesced %.6es vs uncoalesced %.6es"
          r.r_coalesce.F.compile_stall_seconds
          r.r_wfq.F.compile_stall_seconds;
    };
    {
      Gate.name = "warm_store_engaged";
      ok =
        r.r_full.F.warm_hits > 0
        && r.r_full.F.compile_stall_seconds
           <= r.r_coalesce.F.compile_stall_seconds;
      detail =
        Printf.sprintf "%d warm hits; stalls %.6es (warm) vs %.6es (no warm)"
          r.r_full.F.warm_hits r.r_full.F.compile_stall_seconds
          r.r_coalesce.F.compile_stall_seconds;
    };
    {
      Gate.name = "autoscaler_cheaper_than_static";
      ok = r.r_auto.F.replica_seconds < r.r_static.F.replica_seconds;
      detail =
        Printf.sprintf "auto %.3f replica-s vs static %.3f replica-s"
          r.r_auto.F.replica_seconds r.r_static.F.replica_seconds;
    };
    {
      Gate.name = "autoscaler_holds_slo";
      ok =
        m_auto.Metrics.slo_attainment
        >= m_static.Metrics.slo_attainment -. slo_tolerance;
      detail =
        Printf.sprintf "auto %.4f vs static %.4f (tolerance %.2f)"
          m_auto.Metrics.slo_attainment m_static.Metrics.slo_attainment
          slo_tolerance;
    };
    {
      Gate.name = "no_request_lost";
      ok =
        List.for_all
          (fun (o : F.outcome) ->
            List.length o.F.completed + List.length o.F.dropped
            = List.length r.r_trace)
          [ r.r_wfq; r.r_coalesce; r.r_full; r.r_static; r.r_auto ];
      detail =
        Printf.sprintf "%d requests accounted for in every fleet arm"
          (List.length r.r_trace);
    };
  ]

(* JSON for BENCH_fleet.json and the CLI's --out: simulated quantities
   only, so the bytes are identical across runs and job counts. *)

let json r =
  let module J = Mikpoly_telemetry.Json in
  let metrics_obj (m : Metrics.t) =
    J.Obj
      [
        ("requests", J.Number (float_of_int m.Metrics.requests));
        ("completed", J.Number (float_of_int m.Metrics.completed));
        ("dropped", J.Number (float_of_int m.Metrics.dropped));
        ("goodput_rps", J.Number m.Metrics.goodput_rps);
        ("slo_attainment", J.Number m.Metrics.slo_attainment);
        ("latency_p95", J.Number m.Metrics.latency_p95);
        ("cache_hit_rate", J.Number m.Metrics.cache_hit_rate);
        ("compile_stall_seconds", J.Number m.Metrics.compile_stall_seconds);
        ("makespan", J.Number m.Metrics.makespan);
        ("steps", J.Number (float_of_int m.Metrics.steps));
      ]
  in
  let fleet_obj (o : F.outcome) =
    J.Obj
      [
        ("metrics", metrics_obj (metrics o));
        ("warm_hits", J.Number (float_of_int o.F.warm_hits));
        ("warm_compiles", J.Number (float_of_int o.F.warm_compiles));
        ("warm_background_seconds", J.Number o.F.warm_background_seconds);
        ("coalesced_groups", J.Number (float_of_int o.F.coalesced_groups));
        ("requeues", J.Number (float_of_int o.F.requeues));
        ("crashes", J.Number (float_of_int o.F.crashes));
        ("scale_ups", J.Number (float_of_int o.F.scale_ups));
        ("scale_downs", J.Number (float_of_int o.F.scale_downs));
        ("peak_replicas", J.Number (float_of_int o.F.peak_replicas));
        ("replica_seconds", J.Number o.F.replica_seconds);
        ( "tiers",
          J.List
            (List.map
               (fun tm ->
                 J.Obj
                   [
                     ("tier", J.String (Tenant.tier_name tm.F.tm_tier));
                     ("requests", J.Number (float_of_int tm.F.tm_requests));
                     ("completed", J.Number (float_of_int tm.F.tm_completed));
                     ("slo_met", J.Number (float_of_int tm.F.tm_slo_met));
                     ("attainment", J.Number tm.F.tm_attainment);
                   ])
               o.F.tiers) );
      ]
  in
  let gs = gates r in
  J.Obj
    ([
      ("experiment", J.String "fleet");
      ("quick", J.Bool r.r_quick);
      ("requests", J.Number (float_of_int (List.length r.r_trace)));
      ("baseline", metrics_obj r.r_baseline);
      ("wfq", fleet_obj r.r_wfq);
      ("coalesce", fleet_obj r.r_coalesce);
      ("full", fleet_obj r.r_full);
      ("static_faulted", fleet_obj r.r_static);
      ("auto_faulted", fleet_obj r.r_auto);
     ]
    @ Gate.json_fields gs)

(* --- Human-readable report --- *)

let report r =
  let arms =
    [
      ("wfq", r.r_wfq);
      ("+coalesce", r.r_coalesce);
      ("+warm store", r.r_full);
      ("static+faults", r.r_static);
      ("auto+faults", r.r_auto);
    ]
  in
  let main =
    Table.create
      ~title:"Fleet vs scheduler on the heavy-tail multi-tenant trace"
      ~header:Metrics.header
  in
  Table.add_row main (Metrics.to_row ~label:"scheduler" r.r_baseline);
  List.iter
    (fun (label, o) -> Table.add_row main (Metrics.to_row ~label (metrics o)))
    arms;
  let planes =
    Table.create ~title:"Fleet planes: coalescing, warm store, autoscaling"
      ~header:
        [
          "arm"; "stall"; "warm hit"; "warm bg"; "groups"; "requeue";
          "crash"; "up"; "down"; "peak"; "replica-s";
        ]
  in
  List.iter
    (fun (label, (o : F.outcome)) ->
      Table.add_row planes
        [
          label;
          Table.fmt_time_us o.F.compile_stall_seconds;
          string_of_int o.F.warm_hits;
          Table.fmt_time_us o.F.warm_background_seconds;
          string_of_int o.F.coalesced_groups;
          string_of_int o.F.requeues;
          string_of_int o.F.crashes;
          string_of_int o.F.scale_ups;
          string_of_int o.F.scale_downs;
          string_of_int o.F.peak_replicas;
          Printf.sprintf "%.2f" o.F.replica_seconds;
        ])
    arms;
  (* process-wide search-pruning counters behind every arm's compile
     work: candidates discarded analytically before scoring vs rejected
     by the scored bound (cumulative across the whole experiment) *)
  (let pruned_a, pruned_b = Mikpoly_core.Polymerize.prune_counter_values () in
   Table.add_row planes
     [
       "search";
       "pruned";
       Printf.sprintf "%d analytic" pruned_a;
       Printf.sprintf "%d bound" pruned_b;
       ""; ""; ""; ""; ""; ""; "";
     ]);
  let tiers =
    Table.create ~title:"Per-tier SLO attainment (full fleet arm)"
      ~header:[ "tier"; "weight"; "requests"; "completed"; "SLO met"; "attain%" ]
  in
  List.iter
    (fun tm ->
      Table.add_row tiers
        [
          Tenant.tier_name tm.F.tm_tier;
          string_of_int (Tenant.weight tm.F.tm_tier);
          string_of_int tm.F.tm_requests;
          string_of_int tm.F.tm_completed;
          string_of_int tm.F.tm_slo_met;
          Printf.sprintf "%.1f%%" (100. *. tm.F.tm_attainment);
        ])
    r.r_full.F.tiers;
  let m_full = metrics r.r_full in
  let gs = gates r in
  {
    Exp.id = "fleet";
    title = "Multi-tenant fleet serving (new subsystem)";
    tables = [ main; planes; tiers ];
    summary =
      [
        Printf.sprintf
          "At equal replicas the full fleet serves %.2f goodput req/s vs %.2f for the tenant-blind scheduler: coalescing cuts compile stalls from %s to %s, and the learned warm store converts %d replica cache misses into stall-free warm hits (%d buckets precompiled off-path)."
          m_full.Metrics.goodput_rps r.r_baseline.Metrics.goodput_rps
          (Table.fmt_time_us r.r_wfq.F.compile_stall_seconds)
          (Table.fmt_time_us r.r_full.F.compile_stall_seconds)
          r.r_full.F.warm_hits r.r_full.F.warm_compiles;
        Printf.sprintf
          "Under the same crash plan the autoscaler spends %.2f replica-seconds vs %.2f pinned (peak %d of %d slots) at SLO %.3f vs %.3f — crashed replicas hold capacity instead of triggering scale-down."
          r.r_auto.F.replica_seconds r.r_static.F.replica_seconds
          r.r_auto.F.peak_replicas static_replicas
          (metrics r.r_auto).Metrics.slo_attainment
          (metrics r.r_static).Metrics.slo_attainment;
        Gate.summary
          ~all_hold:
            "All fleet gates hold (goodput, tier fairness, coalescing, warm \
             store, autoscaler)."
          gs;
      ];
  }

let run ~quick = report (results ~quick (Backends.gpu ()))

let exp =
  {
    Exp.id = "fleet";
    title = "Multi-tenant fleet serving (new subsystem)";
    paper_claim =
      "Extension of Section 7: on-the-fly polymerization serves multi-tenant \
       dynamic-shape traffic when the fleet amortizes compilation across \
       tenants — shape-aware coalescing, learned bucket precompilation and \
       telemetry-driven autoscaling on the micro-kernel cache";
    run;
  }
