(* Golden differential test for the scheduler, fleet and hetero serving
   loops: a grid of configs x fault plans x trace seeds, each run reduced
   to an FNV-1a digest over every field of its outcome (floats printed
   with [%h], so a one-ulp drift shows). The constants were recorded from the
   loops as they stood before any refactor of their event handling, so
   any change that moves a single outcome bit fails here. *)

module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Scheduler = Mikpoly_serve.Scheduler
module Shape_cache = Mikpoly_serve.Shape_cache
module Tenant = Mikpoly_fleet.Tenant
module Wfq = Mikpoly_fleet.Wfq
module Fleet = Mikpoly_fleet.Fleet
module Ratelimit = Mikpoly_fleet.Ratelimit
module Hetero = Mikpoly_hetero.Hetero
module Backend = Mikpoly_hetero.Backend
module Plan = Mikpoly_fault.Plan
module Hardware = Mikpoly_accel.Hardware
module Checksum = Mikpoly_util.Checksum
module Exp_fleet = Mikpoly_experiments.Exp_fleet
module Exp_hetero = Mikpoly_experiments.Exp_hetero
module Mix = Mikpoly_workloads.Serving_mix

(* --- Outcome serialization --- *)

let buf_digest f =
  let b = Buffer.create 4096 in
  f b;
  Checksum.fnv1a64_hex (Buffer.contents b)

let pf b fmt = Printf.bprintf b fmt

let put_float b x = pf b "%h;" x

let put_int b x = pf b "%d;" x

let put_list b f l =
  pf b "[%d:" (List.length l);
  List.iter (f b) l;
  pf b "]"

let put_req b (r : Request.t) =
  pf b "r%d,%h,%d,%d,%h,%h;" r.Request.id r.Request.arrival
    r.Request.prompt_len r.Request.output_len r.Request.slo.Request.ttft
    r.Request.slo.Request.e2e

let put_completed b (c : Scheduler.completed) =
  put_req b c.Scheduler.request;
  put_float b c.Scheduler.first_token;
  put_float b c.Scheduler.finish;
  put_int b c.Scheduler.replica

let put_cache b (s : Shape_cache.stats) =
  let { Shape_cache.hits; misses; insertions; evictions; size; capacity } =
    s
  in
  List.iter (put_int b) [ hits; misses; insertions; evictions; size; capacity ]

let put_reason b (r, why) =
  put_req b r;
  pf b "%s;" why

let scheduler_digest (o : Scheduler.outcome) =
  let {
    Scheduler.completed;
    dropped;
    rejected;
    timed_out;
    failed;
    steps;
    makespan;
    compile_stall_seconds;
    adapt_stall_seconds;
    actual_tokens;
    padded_tokens;
    cache;
    queue_depth_sum;
    queue_samples;
    retries;
    crashes;
    injected_faults;
  } =
    o
  in
  buf_digest (fun b ->
      put_list b put_completed completed;
      put_list b put_req dropped;
      put_list b put_reason rejected;
      put_list b put_req timed_out;
      put_list b put_reason failed;
      put_int b steps;
      put_float b makespan;
      put_float b compile_stall_seconds;
      put_float b adapt_stall_seconds;
      put_int b actual_tokens;
      put_int b padded_tokens;
      put_list b put_cache cache;
      List.iter (put_int b)
        [
          queue_depth_sum;
          queue_samples;
          retries;
          crashes;
          injected_faults;
        ])

let put_lane b (l : Wfq.lane_stats) =
  let { Wfq.s_tenant; s_queued; s_grants; s_cost } = l in
  put_int b s_tenant.Tenant.tenant_id;
  put_int b s_queued;
  put_int b s_grants;
  put_float b s_cost

let put_tier b (t : Fleet.tier_metrics) =
  let { Fleet.tm_tier; tm_requests; tm_completed; tm_slo_met; tm_attainment } =
    t
  in
  pf b "%s;" (Tenant.tier_name tm_tier);
  List.iter (put_int b) [ tm_requests; tm_completed; tm_slo_met ];
  put_float b tm_attainment

let fleet_digest (o : Fleet.outcome) =
  let {
    Fleet.completed;
    dropped;
    rate_limited;
    steps;
    makespan;
    compile_stall_seconds;
    actual_tokens;
    padded_tokens;
    cache;
    warm_stats;
    warm_hits;
    warm_compiles;
    warm_background_seconds;
    coalesced_groups;
    queue_depth_sum;
    queue_samples;
    crashes;
    injected_faults;
    requeues;
    scale_ups;
    scale_downs;
    peak_replicas;
    replica_seconds;
    lanes;
    tiers;
  } =
    o
  in
  buf_digest (fun b ->
      put_list b put_completed completed;
      put_list b put_req dropped;
      put_list b put_req rate_limited;
      put_int b steps;
      put_float b makespan;
      put_float b compile_stall_seconds;
      put_int b actual_tokens;
      put_int b padded_tokens;
      put_list b put_cache cache;
      (match warm_stats with
      | Some s -> put_cache b s
      | None -> pf b "none;");
      put_int b warm_hits;
      put_int b warm_compiles;
      put_float b warm_background_seconds;
      List.iter (put_int b)
        [
          coalesced_groups;
          queue_depth_sum;
          queue_samples;
          crashes;
          injected_faults;
          requeues;
          scale_ups;
          scale_downs;
          peak_replicas;
        ];
      put_float b replica_seconds;
      put_list b put_lane lanes;
      put_list b put_tier tiers)

let put_class b (cs : Hetero.class_stats) =
  let {
    Hetero.cs_backend;
    cs_kind;
    cs_fingerprint;
    cs_replicas;
    cs_pes;
    cs_routed;
    cs_completed;
    cs_steps;
    cs_stall_seconds;
    cs_service_seconds;
    cs_requeues;
    cs_reroutes_out;
    cs_reroutes_in;
    cs_hedges_in;
    cs_forced;
    cs_probes;
    cs_trips;
    cs_drains;
    cs_brownout_steps;
    cs_degraded_entries;
    cs_level_transitions;
    cs_final_level;
    cs_cache;
    cs_store;
  } =
    cs
  in
  pf b "%s;%s;%s;%s;" cs_backend cs_kind cs_fingerprint cs_final_level;
  List.iter (put_int b)
    [ cs_replicas; cs_pes; cs_routed; cs_completed; cs_steps ];
  put_float b cs_stall_seconds;
  put_float b cs_service_seconds;
  List.iter (put_int b)
    [
      cs_requeues;
      cs_reroutes_out;
      cs_reroutes_in;
      cs_hedges_in;
      cs_forced;
      cs_probes;
      cs_trips;
      cs_drains;
      cs_brownout_steps;
      cs_degraded_entries;
      cs_level_transitions;
    ];
  put_list b put_cache cs_cache;
  put_cache b cs_store

let hetero_digest (o : Hetero.outcome) =
  let {
    Hetero.o_completed;
    o_dropped;
    o_rate_limited;
    o_steps;
    o_makespan;
    o_stall_seconds;
    o_actual_tokens;
    o_padded_tokens;
    o_queue_depth_sum;
    o_queue_samples;
    o_crashes;
    o_injected_faults;
    o_requeues;
    o_reroutes;
    o_hedges;
    o_hedge_cancels;
    o_classes;
    o_tiers;
    o_statuses;
    o_status_digest;
    o_conserved;
  } =
    o
  in
  buf_digest (fun b ->
      put_list b put_completed o_completed;
      put_list b put_req o_dropped;
      put_list b put_req o_rate_limited;
      put_int b o_steps;
      put_float b o_makespan;
      put_float b o_stall_seconds;
      List.iter (put_int b)
        [
          o_actual_tokens;
          o_padded_tokens;
          o_queue_depth_sum;
          o_queue_samples;
          o_crashes;
          o_injected_faults;
          o_requeues;
          o_reroutes;
          o_hedges;
          o_hedge_cancels;
        ];
      put_list b put_class o_classes;
      put_list b put_tier o_tiers;
      put_list b
        (fun b (r, st) ->
          put_req b r;
          pf b "%s;" (Hetero.status_name st))
        o_statuses;
      pf b "%s;%b" o_status_digest o_conserved)

(* --- Workloads --- *)

let seeds = [ 0xF1EE7; 7 ]

(* A Poisson trace that keeps two replicas busy enough for the SLO
   batcher to shed and for the crash plan's instants to land mid-flight. *)
let scheduler_trace seed =
  Request.poisson ~seed ~rate:400. ~count:80 ~ttft_budget:0.02
    ~tpot_budget:0.004 ~max_prompt:64 ~max_output:8 ()

(* Capacity 0 recompiles every launch, capacity 1 evicts between the two
   shape families of every step, 64 holds the whole working set. *)
let scheduler_configs =
  List.concat_map
    (fun cache_capacity ->
      List.map
        (fun (bname, batcher) ->
          ( Printf.sprintf "cache%d-%s" cache_capacity bname,
            {
              Scheduler.replicas = 2;
              batcher;
              bucketing = Bucketing.Aligned 8;
              cache_capacity;
            } ))
        [
          ("slo", Batcher.Slo_aware { max_batch = 8 });
          ("timeout", Batcher.Timeout { window = 0.003; max_batch = 8 });
        ])
    [ 0; 1; 64 ]

let scheduler_crash_plan =
  Plan.make
    ~crashes:[ (0.05, 0); (0.12, 1) ]
    ~restart_delay:0.01 ~step_fail_rate:0.08 ~straggler_rate:0.1
    ~straggler_slowdown:3. ~seed:0x5C4ED ()

let scheduler_plans =
  [
    ("none", Plan.none, None);
    ("crash+steps", scheduler_crash_plan, Some Scheduler.default_resilience);
    ("crash+steps-unprotected", scheduler_crash_plan, None);
  ]

(* A constant online-adaptation stall after every step, so the adapt
   charge reaches the event clock of every run. *)
let scheduler_adapt () = 5e-5

let scheduler_expected =
  [
    (("cache0-slo", "none", 0xF1EE7), "de2d73b3985f541f");
    (("cache0-slo", "crash+steps", 0xF1EE7), "39123d69fe117c86");
    (("cache0-slo", "crash+steps-unprotected", 0xF1EE7), "e08e9d3be4478d15");
    (("cache0-timeout", "none", 0xF1EE7), "b1e507f6bffb83bc");
    (("cache0-timeout", "crash+steps", 0xF1EE7), "f604dd7718db2898");
    (("cache0-timeout", "crash+steps-unprotected", 0xF1EE7), "76c6a2ef8d2c7ba8");
    (("cache1-slo", "none", 0xF1EE7), "99ad25f8bcb8019c");
    (("cache1-slo", "crash+steps", 0xF1EE7), "6c215c1b9e38e211");
    (("cache1-slo", "crash+steps-unprotected", 0xF1EE7), "fb34e554c8cf3f52");
    (("cache1-timeout", "none", 0xF1EE7), "e0a12a2e24fb7065");
    (("cache1-timeout", "crash+steps", 0xF1EE7), "403314699ad09a86");
    (("cache1-timeout", "crash+steps-unprotected", 0xF1EE7), "3b274d60fcebf315");
    (("cache64-slo", "none", 0xF1EE7), "a04598edefad363d");
    (("cache64-slo", "crash+steps", 0xF1EE7), "ba2c33672a92f26c");
    (("cache64-slo", "crash+steps-unprotected", 0xF1EE7), "4bbcddae535c5edf");
    (("cache64-timeout", "none", 0xF1EE7), "525ef2e0b0f25910");
    (("cache64-timeout", "crash+steps", 0xF1EE7), "13eab7fc14049297");
    (("cache64-timeout", "crash+steps-unprotected", 0xF1EE7), "5e08af3b394ac997");
    (("cache0-slo", "none", 0x7), "730805547cf19987");
    (("cache0-slo", "crash+steps", 0x7), "a4a31a0ccaef191e");
    (("cache0-slo", "crash+steps-unprotected", 0x7), "20d2a43809f796dc");
    (("cache0-timeout", "none", 0x7), "c333a1d25976634e");
    (("cache0-timeout", "crash+steps", 0x7), "5c2ede0a21368b02");
    (("cache0-timeout", "crash+steps-unprotected", 0x7), "24decd8b51d96d80");
    (("cache1-slo", "none", 0x7), "082b1e9c356c7822");
    (("cache1-slo", "crash+steps", 0x7), "ad92fe49194b378c");
    (("cache1-slo", "crash+steps-unprotected", 0x7), "dca5dabe3b642c65");
    (("cache1-timeout", "none", 0x7), "0f0b688b25ccc829");
    (("cache1-timeout", "crash+steps", 0x7), "c5b9c13df2d1789a");
    (("cache1-timeout", "crash+steps-unprotected", 0x7), "8d84785dfad7f2b0");
    (("cache64-slo", "none", 0x7), "f398f5929e72796e");
    (("cache64-slo", "crash+steps", 0x7), "5465c262160f4ee6");
    (("cache64-slo", "crash+steps-unprotected", 0x7), "1372c4e7f4dd7461");
    (("cache64-timeout", "none", 0x7), "0ae3e7cfcc8dc0db");
    (("cache64-timeout", "crash+steps", 0x7), "4fac360496ad35e1");
    (("cache64-timeout", "crash+steps-unprotected", 0x7), "d5c566d123d509fe");
  ]

(* The fleet experiment's tenant mix at its full-size rates, with short
   requests so each run stays cheap; the trace spans the fleet fault
   plan's crash instants. *)
let fleet_trace seed =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~ttft_budget:0.02 ~tpot_budget:0.004 ~seed ~max_prompt:64 ~max_output:8
    (Exp_fleet.specs ~quick:false)
    ()

(* Closed-form engine with compile stalls large enough that the warm
   store and coalescing change the outcome. *)
let fleet_engine =
  Scheduler.synthetic_engine ~base:1.5e-3 ~per_token:4e-5 ~compile:2e-3
    ~shape_families:2 ()

let fleet_configs =
  let warm = Exp_fleet.warm_config ~quick:true in
  let replicas = Exp_fleet.replicas in
  [
    ("wfq", Exp_fleet.fleet_config ~replicas ());
    ("coalesce", Exp_fleet.fleet_config ~coalesce:true ~replicas ());
    ("coalesce+warm", Exp_fleet.fleet_config ~coalesce:true ~warm ~replicas ());
    ( "coalesce+warm+autoscale",
      Exp_fleet.fleet_config ~coalesce:true ~warm
        ~autoscale:Exp_fleet.autoscale_config ~replicas () );
    ( "ratelimit",
      Exp_fleet.fleet_config
        ~ratelimit:{ Ratelimit.rl_rate = 40.; rl_burst = 4. }
        ~replicas () );
    ( "timeout-batcher",
      {
        (Exp_fleet.fleet_config ~coalesce:true ~replicas ()) with
        Fleet.batcher = Batcher.Timeout { window = 0.003; max_batch = 8 };
      } );
    ( "coalesce+warm-cache0",
      {
        (Exp_fleet.fleet_config ~coalesce:true ~warm ~replicas ()) with
        Fleet.cache_capacity = 0;
      } );
    ( "coalesce+warm-cache1",
      {
        (Exp_fleet.fleet_config ~coalesce:true ~warm ~replicas ()) with
        Fleet.cache_capacity = 1;
      } );
  ]

(* The experiment's crash plan, and the same plan with transient step
   faults and stragglers on top so the requeue path runs too. *)
let fleet_plans =
  [
    ("none", Plan.none);
    ("crash", Exp_fleet.fault_plan);
    ( "crash+steps",
      {
        Exp_fleet.fault_plan with
        Plan.step_fail_rate = 0.08;
        straggler_rate = 0.1;
        straggler_slowdown = 3.;
      } );
  ]

let fleet_expected =
  [
    (("wfq", "none", 0xF1EE7), "5d2a906f3a0f3bea");
    (("wfq", "crash", 0xF1EE7), "69c4fed1fed01438");
    (("wfq", "crash+steps", 0xF1EE7), "60bee2c1997e2ade");
    (("coalesce", "none", 0xF1EE7), "bd6db90e9c56b763");
    (("coalesce", "crash", 0xF1EE7), "46b27860e89534c8");
    (("coalesce", "crash+steps", 0xF1EE7), "1660f3d44f66e088");
    (("coalesce+warm", "none", 0xF1EE7), "9a10946b27b9a8d9");
    (("coalesce+warm", "crash", 0xF1EE7), "8eb9d13494ff28e8");
    (("coalesce+warm", "crash+steps", 0xF1EE7), "263dbfd4b67d9730");
    (("coalesce+warm+autoscale", "none", 0xF1EE7), "a4f358559659557a");
    (("coalesce+warm+autoscale", "crash", 0xF1EE7), "091b2bbae6395c36");
    (("coalesce+warm+autoscale", "crash+steps", 0xF1EE7), "08559dd88b072de4");
    (("ratelimit", "none", 0xF1EE7), "7352481e338c5b5d");
    (("ratelimit", "crash", 0xF1EE7), "ec24e269ea6ab9ec");
    (("ratelimit", "crash+steps", 0xF1EE7), "e5c6b4697e11c5de");
    (("timeout-batcher", "none", 0xF1EE7), "e97c64a90c4acc3b");
    (("timeout-batcher", "crash", 0xF1EE7), "351809a9d6c37def");
    (("timeout-batcher", "crash+steps", 0xF1EE7), "2d6123db196bcfb9");
    (("wfq", "none", 0x7), "b1d3e70701b96540");
    (("wfq", "crash", 0x7), "a0304c796592eb06");
    (("wfq", "crash+steps", 0x7), "90eefa31af71c20b");
    (("coalesce", "none", 0x7), "c642f75000ac9035");
    (("coalesce", "crash", 0x7), "6e3221d21f5eeed0");
    (("coalesce", "crash+steps", 0x7), "27717d5fec6c2e5e");
    (("coalesce+warm", "none", 0x7), "26b4dfd8f8494749");
    (("coalesce+warm", "crash", 0x7), "ab49796a970be024");
    (("coalesce+warm", "crash+steps", 0x7), "c5c5e63b8d115c5e");
    (("coalesce+warm+autoscale", "none", 0x7), "ce7456c119a73bf9");
    (("coalesce+warm+autoscale", "crash", 0x7), "39c6878de76d5a87");
    (("coalesce+warm+autoscale", "crash+steps", 0x7), "1dcecaf9a31fa621");
    (("ratelimit", "none", 0x7), "1f88c6f044d87695");
    (("ratelimit", "crash", 0x7), "b4b58e3b097a1484");
    (("ratelimit", "crash+steps", 0x7), "7127d6292a3e3b10");
    (("timeout-batcher", "none", 0x7), "bc4fa7a388f888b2");
    (("timeout-batcher", "crash", 0x7), "80e878945f4c12dc");
    (("timeout-batcher", "crash+steps", 0x7), "917abf50c5f966f6");
    (("coalesce+warm-cache0", "none", 0xF1EE7), "b99e61791710dc34");
    (("coalesce+warm-cache0", "crash", 0xF1EE7), "15ccce4fdf13222b");
    (("coalesce+warm-cache0", "crash+steps", 0xF1EE7), "b9d071245230b8e2");
    (("coalesce+warm-cache1", "none", 0xF1EE7), "5aa5272590dd7308");
    (("coalesce+warm-cache1", "crash", 0xF1EE7), "092437f4637f8fc7");
    (("coalesce+warm-cache1", "crash+steps", 0xF1EE7), "d9837bc8f83c7cff");
    (("coalesce+warm-cache0", "none", 0x7), "710f8398cafc51ac");
    (("coalesce+warm-cache0", "crash", 0x7), "3619e3d2ce8aa295");
    (("coalesce+warm-cache0", "crash+steps", 0x7), "b453043f4c2b1bd1");
    (("coalesce+warm-cache1", "none", 0x7), "02c8b913952450b2");
    (("coalesce+warm-cache1", "crash", 0x7), "ae59ebd7e3f35354");
    (("coalesce+warm-cache1", "crash+steps", 0x7), "d4f3e37cc37da682");
  ]

let hetero_trace seed =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~profiles:Exp_hetero.profiles ~seed ~max_prompt:32 ~max_output:8
    (Exp_hetero.specs ~quick:true ~mult:Exp_hetero.chaos_mult)
    ()

(* A latency-strong class and a throughput class, in closed form: the
   first wins on small interactive prompts, the second on large batch
   prefills, so the router splits the mix. *)
let gpu ~replicas =
  Backend.make ~hw:Hardware.a100 ~replicas
    (Scheduler.synthetic_engine ~base:4e-4 ~per_token:2e-5 ~compile:1e-3
       ~shape_families:2 ())

let npu ~replicas =
  Backend.make ~hw:Hardware.ascend910 ~replicas
    (Scheduler.synthetic_engine ~base:1.5e-3 ~per_token:5e-6 ~compile:3e-3
       ~shape_families:2 ())

let hetero_config ?hedge ?(failover = true) ?ratelimit backends =
  {
    (Exp_hetero.hetero_config ?hedge ~failover backends) with
    Hetero.ratelimit;
  }

let hetero_configs =
  let mixed () = [ gpu ~replicas:2; npu ~replicas:3 ] in
  [
    ("mixed", hetero_config (mixed ()));
    ("single", hetero_config [ gpu ~replicas:3 ]);
    ("hedge", hetero_config ~hedge:Hetero.default_hedge (mixed ()));
    ( "no-failover",
      hetero_config ~hedge:Hetero.default_hedge ~failover:false (mixed ()) );
    ( "ratelimit",
      hetero_config ~hedge:Hetero.default_hedge
        ~ratelimit:(Exp_hetero.ratelimit ~quick:true)
        (mixed ()) );
    ( "timeout-batcher",
      {
        (hetero_config ~hedge:Hetero.default_hedge (mixed ())) with
        Hetero.batcher = Batcher.Timeout { window = 0.002; max_batch = 8 };
        coalesce = false;
      } );
    ( "hedge-cache0",
      {
        (hetero_config ~hedge:Hetero.default_hedge (mixed ())) with
        Hetero.cache_capacity = 0;
      } );
    ( "hedge-cache1",
      {
        (hetero_config ~hedge:Hetero.default_hedge (mixed ())) with
        Hetero.cache_capacity = 1;
      } );
  ]

let hetero_plans =
  [
    ("none", Plan.none);
    ("outage", Exp_hetero.outage_plan ~quick:true);
    ("brownout", Exp_hetero.brownout_plan ~quick:true);
    ( "crash+steps",
      Plan.make
        ~crashes:[ (0.01, 1); (0.02, 3) ]
        ~restart_delay:0.005 ~step_fail_rate:0.05 ~straggler_rate:0.1
        ~straggler_slowdown:3. ~seed:0x4E7E60 () );
  ]

let hetero_expected =
  [
    (("mixed", "none", 0xF1EE7), "f040e79460314e26");
    (("mixed", "outage", 0xF1EE7), "da85c83e7e272111");
    (("mixed", "brownout", 0xF1EE7), "34559cc113339c85");
    (("mixed", "crash+steps", 0xF1EE7), "74decc41ba258ebc");
    (("single", "none", 0xF1EE7), "fa73f6a264a0b7e2");
    (("single", "outage", 0xF1EE7), "d56938ff5c9cda2b");
    (("single", "brownout", 0xF1EE7), "5c6ebf0c18e660c5");
    (("single", "crash+steps", 0xF1EE7), "3b34009467ad49ee");
    (("hedge", "none", 0xF1EE7), "f040e79460314e26");
    (("hedge", "outage", 0xF1EE7), "67ba1f52d30a2e54");
    (("hedge", "brownout", 0xF1EE7), "3f936405c2ff4594");
    (("hedge", "crash+steps", 0xF1EE7), "65b72364a78b2707");
    (("no-failover", "none", 0xF1EE7), "f040e79460314e26");
    (("no-failover", "outage", 0xF1EE7), "e014fd7fc802fbde");
    (("no-failover", "brownout", 0xF1EE7), "c45ac4d1ae1400da");
    (("no-failover", "crash+steps", 0xF1EE7), "74decc41ba258ebc");
    (("ratelimit", "none", 0xF1EE7), "0afc0c6e87aaa2e4");
    (("ratelimit", "outage", 0xF1EE7), "657f6ba5fca862c6");
    (("ratelimit", "brownout", 0xF1EE7), "b551b09caf983ee3");
    (("ratelimit", "crash+steps", 0xF1EE7), "05a15a4534329819");
    (("timeout-batcher", "none", 0xF1EE7), "4d5ddf64d76a71ae");
    (("timeout-batcher", "outage", 0xF1EE7), "7508be3c89c0e3a7");
    (("timeout-batcher", "brownout", 0xF1EE7), "f505e245f1d1467b");
    (("timeout-batcher", "crash+steps", 0xF1EE7), "2e2791ecf0481ad7");
    (("mixed", "none", 0x7), "5053ce081374a09d");
    (("mixed", "outage", 0x7), "5186704f18732a13");
    (("mixed", "brownout", 0x7), "caec0ac221bff9c8");
    (("mixed", "crash+steps", 0x7), "812e15b38df6dd55");
    (("single", "none", 0x7), "95db459f3ef7a2f0");
    (("single", "outage", 0x7), "13d0033186a9edbb");
    (("single", "brownout", 0x7), "c02c45b3686c4796");
    (("single", "crash+steps", 0x7), "fc3781982c13ccab");
    (("hedge", "none", 0x7), "5053ce081374a09d");
    (("hedge", "outage", 0x7), "5186704f18732a13");
    (("hedge", "brownout", 0x7), "caec0ac221bff9c8");
    (("hedge", "crash+steps", 0x7), "e19f6f84ee42cd08");
    (("no-failover", "none", 0x7), "5053ce081374a09d");
    (("no-failover", "outage", 0x7), "5186704f18732a13");
    (("no-failover", "brownout", 0x7), "caec0ac221bff9c8");
    (("no-failover", "crash+steps", 0x7), "812e15b38df6dd55");
    (("ratelimit", "none", 0x7), "4dfbcc1be6045968");
    (("ratelimit", "outage", 0x7), "c185df5136496e3b");
    (("ratelimit", "brownout", 0x7), "fd00b496a016a1a1");
    (("ratelimit", "crash+steps", 0x7), "24ec3b6cb227276c");
    (("timeout-batcher", "none", 0x7), "3776d1735da4a5b6");
    (("timeout-batcher", "outage", 0x7), "fc1703e1d5c836ea");
    (("timeout-batcher", "brownout", 0x7), "0d3d22efdf4c5ee3");
    (("timeout-batcher", "crash+steps", 0x7), "939908682b7fd123");
    (("hedge-cache0", "none", 0xF1EE7), "fa40686d7877afd4");
    (("hedge-cache0", "outage", 0xF1EE7), "6c58a3d18377809a");
    (("hedge-cache0", "brownout", 0xF1EE7), "7d291bdd03ca507f");
    (("hedge-cache0", "crash+steps", 0xF1EE7), "57da39b68310f189");
    (("hedge-cache1", "none", 0xF1EE7), "05d97459f433b062");
    (("hedge-cache1", "outage", 0xF1EE7), "79483f5c5a6a68db");
    (("hedge-cache1", "brownout", 0xF1EE7), "fea3888e4f467f22");
    (("hedge-cache1", "crash+steps", 0xF1EE7), "d888d458496edd4f");
    (("hedge-cache0", "none", 0x7), "9469af7663007cc3");
    (("hedge-cache0", "outage", 0x7), "5909a7bacb4a4400");
    (("hedge-cache0", "brownout", 0x7), "9469af7663007cc3");
    (("hedge-cache0", "crash+steps", 0x7), "aa556b5abb3d642c");
    (("hedge-cache1", "none", 0x7), "886e5ccd46602abf");
    (("hedge-cache1", "outage", 0x7), "94c3f201c2955d6a");
    (("hedge-cache1", "brownout", 0x7), "4f3e3ad5e1af461c");
    (("hedge-cache1", "crash+steps", 0x7), "a8bf2c47c134ee22");
  ]

(* --- The grid --- *)

let lookup expected key =
  match List.assoc_opt key expected with Some d -> d | None -> "missing"

let label (config, plan, seed) = Printf.sprintf "%s/%s/%x" config plan seed

let test_scheduler_grid () =
  List.iter
    (fun seed ->
      let trace = scheduler_trace seed in
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (pname, faults, resilience) ->
              let key = (cname, pname, seed) in
              let o =
                Scheduler.run ~adapt:scheduler_adapt ~faults ?resilience config
                  fleet_engine trace
              in
              Alcotest.(check string)
                (label key)
                (lookup scheduler_expected key)
                (scheduler_digest o))
            scheduler_plans)
        scheduler_configs)
    seeds

let test_fleet_grid () =
  List.iter
    (fun seed ->
      let trace = fleet_trace seed in
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (pname, faults) ->
              let key = (cname, pname, seed) in
              let o = Fleet.run ~faults config fleet_engine trace in
              Alcotest.(check string)
                (label key) (lookup fleet_expected key) (fleet_digest o))
            fleet_plans)
        fleet_configs)
    seeds

let test_hetero_grid () =
  List.iter
    (fun seed ->
      let trace = hetero_trace seed in
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (pname, faults) ->
              let key = (cname, pname, seed) in
              let o = Hetero.run ~faults config trace in
              Alcotest.(check string)
                (label key) (lookup hetero_expected key) (hetero_digest o))
            hetero_plans)
        hetero_configs)
    seeds

(* --- Allocation gate --- *)

(* [fleet_engine] with every GEMM shape launched [launches] times per
   step. Only the number of lookups depends on [launches]: a step's
   misses, and so every simulated outcome, are the same for any count. *)
let launches_engine launches =
  {
    fleet_engine with
    Scheduler.step_shapes =
      (fun ~tokens ->
        List.map
          (fun (shape, _) -> (shape, launches))
          (fleet_engine.Scheduler.step_shapes ~tokens));
  }

let alloc_trace =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~ttft_budget:0.02 ~tpot_budget:0.004 ~seed:0xA110C ~max_prompt:64
    ~max_output:8
    (List.mapi
       (fun i (tier, count) ->
         {
           Tenant.tenant =
             {
               Tenant.tenant_id = i;
               tenant_name = Tenant.tier_name tier;
               tier;
             };
           rate = 100.;
           count;
         })
       [ (Tenant.Gold, 200); (Tenant.Silver, 300); (Tenant.Best_effort, 300) ])
    ()

(* Allocation is deterministic, so this gates the per-launch lookup cost
   without a clock: a warm step must cost one program lookup per shape,
   so 100x the launches may not cost more allocation. *)
let check_alloc_flat name run =
  let words launches =
    let before = Gc.minor_words () in
    run (launches_engine launches);
    Gc.minor_words () -. before
  in
  let few = words 4 and many = words 400 in
  if many > 1.05 *. few then
    Alcotest.failf
      "%s: minor words %.0f at 4 launches per shape, %.0f at 400 (x%.2f > 1.05)"
      name few many (many /. few)

let test_alloc_flat_in_launches () =
  let requests = Tenant.requests alloc_trace in
  check_alloc_flat "Scheduler.run" (fun engine ->
      ignore
        (Scheduler.run ~jobs:1
           {
             Scheduler.replicas = 4;
             batcher = Batcher.Slo_aware { max_batch = 8 };
             bucketing = Bucketing.Aligned 8;
             cache_capacity = 64;
           }
           engine requests));
  check_alloc_flat "Fleet.run" (fun engine ->
      ignore
        (Fleet.run
           (Exp_fleet.fleet_config ~coalesce:true
              ~warm:(Exp_fleet.warm_config ~quick:true)
              ~replicas:Exp_fleet.replicas ())
           engine alloc_trace));
  check_alloc_flat "Hetero.run" (fun engine ->
      ignore
        (Hetero.run
           (hetero_config ~hedge:Hetero.default_hedge
              [
                Backend.make ~hw:Hardware.a100 ~replicas:2 engine;
                Backend.make ~hw:Hardware.ascend910 ~replicas:3 engine;
              ])
           alloc_trace))

let () =
  Alcotest.run "loop_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "scheduler grid" `Quick test_scheduler_grid;
          Alcotest.test_case "fleet grid" `Quick test_fleet_grid;
          Alcotest.test_case "hetero grid" `Quick test_hetero_grid;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "flat in launches per shape" `Quick
            test_alloc_flat_in_launches;
        ] );
    ]
