(* Golden differential test for the fleet and hetero serving loops: a
   grid of configs x fault plans x trace seeds, each run reduced to an
   FNV-1a digest over every field of its outcome (floats printed with
   [%h], so a one-ulp drift shows). The constants were recorded from the
   loops as they stood before any refactor of their event handling, so
   any change that moves a single outcome bit fails here. *)

module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
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
  ]

(* --- The grid --- *)

let lookup expected key =
  match List.assoc_opt key expected with Some d -> d | None -> "missing"

let label (config, plan, seed) = Printf.sprintf "%s/%s/%x" config plan seed

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

let () =
  Alcotest.run "loop_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "fleet grid" `Quick test_fleet_grid;
          Alcotest.test_case "hetero grid" `Quick test_hetero_grid;
        ] );
    ]
