(* The three serving event loops (lib/serve, lib/fleet, lib/hetero)
   measured from outside, on tagged multi-tenant traces.

   The engine closures handed to each loop are wrapped: every call is
   counted (always) and spanned (traced runs), so a loop's self time is
   its span minus the engine time spent under it. The engines underneath
   are the ones the hetero experiment serves — [Engines.mixed_engine]
   on an A100 and an Ascend-910 compiler — so engine time is core +
   accel work, or memo lookups once the engines are warm. *)

module Compiler = Mikpoly_core.Compiler
module Hardware = Mikpoly_accel.Hardware
module Sch = Mikpoly_serve.Scheduler
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Tenant = Mikpoly_fleet.Tenant
module Fleet = Mikpoly_fleet.Fleet
module H = Mikpoly_hetero.Hetero
module Backend = Mikpoly_hetero.Backend
module Engines = Mikpoly_hetero.Engines
module Mix = Mikpoly_workloads.Serving_mix
module Stats = Mikpoly_util.Stats
module EH = Mikpoly_experiments.Exp_hetero
module EF = Mikpoly_experiments.Exp_fleet

(* --- Inputs ---------------------------------------------------------- *)

type load = {
  mult : float;  (** multiple of the [Serving_mix] tenant rates *)
  door : bool;  (** the hetero experiment's token-bucket rate limiter *)
  requests : int;
}

(* Sum of the mix's open-loop Poisson rates, requests per simulated
   second, at this load. *)
let offered_rps load =
  List.fold_left (fun acc r -> acc +. r.Mix.mix_rate) 0. Mix.rows *. load.mult

let specs load =
  List.mapi
    (fun i ((row : Mix.tenant_row), count) ->
      {
        Tenant.tenant =
          {
            Tenant.tenant_id = i;
            tenant_name = row.Mix.mix_name;
            tier = EH.tier_of_name row.Mix.mix_tier;
          };
        rate = row.Mix.mix_rate *. load.mult;
        count;
      })
    (Mix.counts ~total:load.requests)

(* The hetero experiment's tenant mix: tier profiles, Pareto prompts. *)
let trace ~seed load =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~profiles:EH.profiles ~seed ~max_prompt:32 ~max_output:8 (specs load) ()

(* --- Engines --------------------------------------------------------- *)

type loop = Sched | Fleet_loop | Hetero_loop

let loops = [ Sched; Fleet_loop; Hetero_loop ]

let loop_name = function
  | Sched -> "serve.scheduler"
  | Fleet_loop -> "fleet"
  | Hetero_loop -> "hetero"

let k_loop =
  List.map (fun l -> (l, Probe.kind (loop_name l ^ ".run"))) loops

let k_step = Probe.kind "engine.step_seconds"

let k_shapes = Probe.kind "engine.step_shapes"

let k_compile = Probe.kind "engine.compile_seconds"

let k_precompile = Probe.kind "engine.precompile_batch"

let engine_kinds = [ k_step; k_shapes; k_compile; k_precompile ]

type env = {
  gpu : Sch.engine;
  npu : Sch.engine;
  calls : int array;  (** engine closure calls, per loop *)
}

let loop_index = function Sched -> 0 | Fleet_loop -> 1 | Hetero_loop -> 2

(* Fresh compilers (the offline stage is memoized per platform) and the
   experiment's mixed engines over them. *)
let make_env () =
  let engine hw = Engines.mixed_engine ~cnn_cut:EH.cnn_cut (Compiler.create hw) in
  {
    gpu = engine Hardware.a100;
    npu = engine Hardware.ascend910;
    calls = Array.make 3 0;
  }

let wrap env loop (e : Sch.engine) =
  let i = loop_index loop in
  let tick () = env.calls.(i) <- env.calls.(i) + 1 in
  {
    e with
    Sch.step_seconds =
      (fun ~tokens ~kv_tokens ->
        tick ();
        Probe.span k_step (fun () -> e.Sch.step_seconds ~tokens ~kv_tokens));
    step_shapes =
      (fun ~tokens ->
        tick ();
        Probe.span k_shapes (fun () -> e.Sch.step_shapes ~tokens));
    compile_seconds =
      (fun s ->
        tick ();
        Probe.span k_compile (fun () -> e.Sch.compile_seconds s));
    precompile_batch =
      (fun ~jobs shapes ->
        tick ();
        Probe.span k_precompile (fun () -> e.Sch.precompile_batch ~jobs shapes));
  }

(* The first [count] distinct GEMM shapes the mixed engines compile for
   steps of 1, 2, 3, ... tokens: the dynamic-shape space a deployment
   without bucketing meets — the LLM projections, then the conv stack's
   im2col shapes as the image batch grows. *)
let engine_shapes ~count =
  let e = Engines.mixed_engine ~cnn_cut:EH.cnn_cut (Compiler.create Hardware.a100) in
  let seen = Hashtbl.create count and out = ref [] and tokens = ref 1 in
  while Hashtbl.length seen < count do
    List.iter
      (fun (s, _) ->
        if Hashtbl.length seen < count && not (Hashtbl.mem seen s) then begin
          Hashtbl.add seen s ();
          out := s :: !out
        end)
      (e.Sch.step_shapes ~tokens:!tokens);
    incr tokens
  done;
  Array.of_list (List.rev !out)

(* --- The loops ------------------------------------------------------- *)

let max_batch = 8

let replicas = 3

let sched_config =
  {
    Sch.replicas;
    batcher = Batcher.Slo_aware { max_batch };
    bucketing = Bucketing.Pow2;
    cache_capacity = 64;
  }

let ratelimit load = if load.door then Some (EH.ratelimit ~quick:false) else None

let fleet_config load =
  EF.fleet_config ~coalesce:true ~warm:(EF.warm_config ~quick:false)
    ?ratelimit:(ratelimit load) ~replicas ()

(* The hetero experiment's mixed fleet: 2 GPU + 3 NPU replicas, hedging
   on. *)
let hetero_config env load =
  let backends =
    [
      Backend.make ~hw:Hardware.a100 ~replicas:2 (wrap env Hetero_loop env.gpu);
      Backend.make ~hw:Hardware.ascend910 ~replicas:3 (wrap env Hetero_loop env.npu);
    ]
  in
  { (EH.hetero_config ~hedge:H.default_hedge ~quick:false backends) with
    H.ratelimit = ratelimit load }

(* Per-loop operation accounting and the deterministic counts of one
   run. *)
type summary = {
  sent : int;
  completed : int;
  dropped : int;
  rate_limited : int;
  timed_out : int;
  failed : int;
  slo_met : int;
  makespan : float;
  steps : int;
  queue_depth_sum : int;
  queue_samples : int;
  engine_calls : int;
  cache : Shape_cache.stats;
  warm_hits : int;
  coalesced : int;
  reroutes : int;
  hedges : int;
  hedge_cancels : int;
  store : Shape_cache.stats;
  digest : string;
  conserved : bool;  (** exactly one terminal status per trace request *)
}

let empty_cache = Shape_cache.total []

let count_slo_met completed = List.length (List.filter Fleet.slo_met completed)

(* Digest and conservation check of a (request id, status) ledger
   against the trace. *)
let ledger trace_ids pairs =
  let sorted = List.sort compare pairs in
  let ids = List.map fst sorted in
  let conserved = ids = trace_ids in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun (id, st) -> string_of_int id ^ "=" ^ st) sorted)))
  in
  (digest, conserved)

let ids rs = List.map (fun (r : Request.t) -> r.Request.id) rs

(* A trace ready to serve: its tagged requests, the tenant-blind
   request list the scheduler takes, and the sorted ids the ledgers are
   checked against. *)
type prepared = {
  tagged : Tenant.tagged list;
  requests : Request.t list;
  trace_ids : int list;
}

let prepare tagged =
  let requests = Tenant.requests tagged in
  { tagged; requests; trace_ids = List.sort compare (ids requests) }

(* Times and spans only the call into the loop; building its config and
   checking its outcome stay outside. *)
let call loop f = Probe.timed (fun () -> Probe.span (List.assoc loop k_loop) f)

let run_sched env p =
  let e = wrap env Sched env.gpu in
  let o, dt = call Sched (fun () -> Sch.run ~jobs:1 sched_config e p.requests) in
  let status = function
    | Sch.Completed -> "completed"
    | Sch.Rejected _ -> "rejected"
    | Sch.Timed_out -> "timed_out"
    | Sch.Failed _ -> "failed"
  in
  let digest, conserved =
    ledger p.trace_ids
      (List.map (fun ((r : Request.t), s) -> (r.Request.id, status s)) (Sch.statuses o))
  in
  ( {
      sent = List.length p.trace_ids;
      completed = List.length o.Sch.completed;
      dropped = List.length o.Sch.dropped + List.length o.Sch.rejected;
      rate_limited = 0;
      timed_out = List.length o.Sch.timed_out;
      failed = List.length o.Sch.failed;
      slo_met = count_slo_met o.Sch.completed;
      makespan = o.Sch.makespan;
      steps = o.Sch.steps;
      queue_depth_sum = o.Sch.queue_depth_sum;
      queue_samples = o.Sch.queue_samples;
      engine_calls = 0;
      cache = Shape_cache.total o.Sch.cache;
      warm_hits = 0;
      coalesced = 0;
      reroutes = 0;
      hedges = 0;
      hedge_cancels = 0;
      store = empty_cache;
      digest;
      conserved;
    },
    dt )

let run_fleet env load p =
  let e = wrap env Fleet_loop env.gpu in
  let config = fleet_config load in
  let o, dt = call Fleet_loop (fun () -> Fleet.run config e p.tagged) in
  let tag s rs = List.map (fun id -> (id, s)) (ids rs) in
  let digest, conserved =
    ledger p.trace_ids
      (tag "completed"
         (List.map (fun (c : Sch.completed) -> c.Sch.request) o.Fleet.completed)
      @ tag "dropped" o.Fleet.dropped
      @ tag "rate_limited" o.Fleet.rate_limited)
  in
  ( {
      sent = List.length p.trace_ids;
      completed = List.length o.Fleet.completed;
      dropped = List.length o.Fleet.dropped;
      rate_limited = List.length o.Fleet.rate_limited;
      timed_out = 0;
      failed = 0;
      slo_met = count_slo_met o.Fleet.completed;
      makespan = o.Fleet.makespan;
      steps = o.Fleet.steps;
      queue_depth_sum = o.Fleet.queue_depth_sum;
      queue_samples = o.Fleet.queue_samples;
      engine_calls = 0;
      cache = Shape_cache.total o.Fleet.cache;
      warm_hits = o.Fleet.warm_hits;
      coalesced = o.Fleet.coalesced_groups;
      reroutes = 0;
      hedges = 0;
      hedge_cancels = 0;
      store = Option.value o.Fleet.warm_stats ~default:empty_cache;
      digest;
      conserved;
    },
    dt )

let run_hetero env load p =
  let config = hetero_config env load in
  let o, dt = call Hetero_loop (fun () -> H.run config p.tagged) in
  let digest, conserved =
    ledger p.trace_ids
      (List.map (fun ((r : Request.t), s) -> (r.Request.id, H.status_name s)) o.H.o_statuses)
  in
  let count st = List.length (List.filter (fun (_, s) -> s = st) o.H.o_statuses) in
  ( {
      sent = List.length p.trace_ids;
      completed = count H.Completed;
      dropped = count H.Dropped;
      rate_limited = count H.Rate_limited;
      timed_out = 0;
      failed = 0;
      slo_met = count_slo_met o.H.o_completed;
      makespan = o.H.o_makespan;
      steps = o.H.o_steps;
      queue_depth_sum = o.H.o_queue_depth_sum;
      queue_samples = o.H.o_queue_samples;
      engine_calls = 0;
      cache = Shape_cache.total (List.concat_map (fun cs -> cs.H.cs_cache) o.H.o_classes);
      warm_hits = 0;
      coalesced = 0;
      reroutes = o.H.o_reroutes;
      hedges = o.H.o_hedges;
      hedge_cancels = o.H.o_hedge_cancels;
      store = Shape_cache.total (List.map (fun cs -> cs.H.cs_store) o.H.o_classes);
      digest = o.H.o_status_digest ^ "/" ^ digest;
      conserved = conserved && o.H.o_conserved;
    },
    dt )

(* One run of [loop] over a prepared trace: its summary, with the
   engine-call count, and the host seconds of the loop call. *)
let run_loop env load loop p =
  let i = loop_index loop in
  env.calls.(i) <- 0;
  let s, dt =
    match loop with
    | Sched -> run_sched env p
    | Fleet_loop -> run_fleet env load p
    | Hetero_loop -> run_hetero env load p
  in
  ({ s with engine_calls = env.calls.(i) }, dt)

(* Host seconds spent inside the engine closures since the last span
   reset. *)
let engine_seconds () =
  List.fold_left (fun acc k -> acc +. Probe.total_s k) 0. engine_kinds

let engine_calls () = List.fold_left (fun acc k -> acc + Probe.count k) 0 engine_kinds

(* --- The serving part of a workload ---------------------------------- *)

(* Field-wise sum of two runs' summaries (digests concatenated). *)
let add_summary a b =
  {
    sent = a.sent + b.sent;
    completed = a.completed + b.completed;
    dropped = a.dropped + b.dropped;
    rate_limited = a.rate_limited + b.rate_limited;
    timed_out = a.timed_out + b.timed_out;
    failed = a.failed + b.failed;
    slo_met = a.slo_met + b.slo_met;
    makespan = a.makespan +. b.makespan;
    steps = a.steps + b.steps;
    queue_depth_sum = a.queue_depth_sum + b.queue_depth_sum;
    queue_samples = a.queue_samples + b.queue_samples;
    engine_calls = a.engine_calls + b.engine_calls;
    cache = Shape_cache.total [ a.cache; b.cache ];
    warm_hits = a.warm_hits + b.warm_hits;
    coalesced = a.coalesced + b.coalesced;
    reroutes = a.reroutes + b.reroutes;
    hedges = a.hedges + b.hedges;
    hedge_cancels = a.hedge_cancels + b.hedge_cancels;
    store = Shape_cache.total [ a.store; b.store ];
    digest = a.digest ^ " " ^ b.digest;
    conserved = a.conserved && b.conserved;
  }

type t = {
  load : load;
  traces : prepared array;
  fresh : bool;  (** cold start: a new environment for every rep *)
  env : env;
  firsts : (int * loop, summary) Hashtbl.t;  (** first run per trace *)
  us_per_req : (loop * int, float list) Hashtbl.t;  (** timed reps, per trace *)
  traced_steps : int array;  (** per loop, steps of traced reps *)
  run_s : (loop * bool, float list) Hashtbl.t;
      (** host seconds of each run, by loop and whether it was traced *)
  mutable repeat_ok : bool;  (** every rep repeated the first run *)
}

(* Several traces, so every figure covers several draws of the
   workload. *)
let create ~fresh env load traces =
  {
    load;
    traces = Array.of_list (List.map prepare traces);
    fresh;
    env;
    firsts = Hashtbl.create 16;
    us_per_req = Hashtbl.create 4;
    traced_steps = Array.make 3 0;
    run_s = Hashtbl.create 8;
    repeat_ok = true;
  }

(* Loop runs shorter than this are repeated within a rep, so a fast loop
   contributes as many timing samples as a slow one. *)
let min_rep_s = 0.1

(* One rep, after a {!Probe.settle}: each loop on trace [k], repeated
   until it has run for [min_rep_s]; in the cold-start mode every run
   gets a fresh environment. Only a [timed] rep adds µs/request samples;
   samples are scaled ({!Probe.scaled}). The first run of each loop on
   each trace is its reference: every later run must repeat it. *)
let rep t ~timed k =
  List.iter
    (fun loop ->
      let elapsed = ref 0. in
      while !elapsed < min_rep_s do
        let env = if t.fresh then make_env () else t.env in
        let s, dt = run_loop env t.load loop t.traces.(k) in
        (match Hashtbl.find_opt t.firsts (k, loop) with
        | None -> Hashtbl.replace t.firsts (k, loop) s
        | Some f -> if f <> s then t.repeat_ok <- false);
        if timed then begin
          let prev = Option.value (Hashtbl.find_opt t.us_per_req (loop, k)) ~default:[] in
          Hashtbl.replace t.us_per_req (loop, k)
            ((Probe.scaled dt *. 1e6 /. float_of_int s.sent) :: prev)
        end;
        let key = (loop, !Probe.tracing) in
        Hashtbl.replace t.run_s key
          (Probe.scaled dt :: Option.value (Hashtbl.find_opt t.run_s key) ~default:[]);
        if !Probe.tracing then begin
          let i = loop_index loop in
          t.traced_steps.(i) <- t.traced_steps.(i) + s.steps
        end;
        elapsed := !elapsed +. dt
      done)
    loops

let n_traces t = Array.length t.traces

(* The loop's runs over all traces, summed. *)
let summary t loop =
  let s = ref None in
  Array.iteri
    (fun k _ ->
      let f = Hashtbl.find t.firsts (k, loop) in
      s := Some (match !s with None -> f | Some a -> add_summary a f))
    t.traces;
  Option.get !s

(* Host µs per request: the median of each trace's timed reps, averaged
   over the traces. *)
let us_per_req t loop =
  let per_trace =
    List.init (Array.length t.traces) (fun k ->
        Stats.median (Hashtbl.find t.us_per_req (loop, k)))
  in
  List.fold_left ( +. ) 0. per_trace /. float_of_int (List.length per_trace)

(* Host µs of the loop's own code per step, over the traced reps: the
   loop span minus the engine spans under it, at the run's median
   {!Probe.run_scale}. *)
let self_us_per_step t loop =
  Probe.ratio
    (Probe.self_s (List.assoc loop k_loop) *. 1e6 *. Probe.run_scale ())
    (float_of_int t.traced_steps.(loop_index loop))

(* Median host seconds of one run of [loop], traced or not. *)
let run_seconds t loop ~traced =
  Stats.median (Option.value (Hashtbl.find_opt t.run_s (loop, traced)) ~default:[ 0. ])

(* SLO-met requests per simulated second, pooled over the traces. *)
let goodput t loop =
  let s = summary t loop in
  Probe.ratio (float_of_int s.slo_met) s.makespan

(* Set-up of a serving workload, once: the offline stage of both
   platforms (the kernel-set memo cleared first, so it really runs),
   then, when [warm], one rep of every loop on [trace] to fill the
   engines' step memos. Returns the environment and the set-up seconds
   ({!Probe.scaled}): the offline stage plus the time spent inside the
   engine closures during that rep (the loops' own time is not set-up
   work). *)
let setup ~warm load trace =
  Mikpoly_core.Kernel_set.clear_cache ();
  Probe.settle ();
  let env, offline_s = Probe.timed make_env in
  if not warm then (env, Probe.scaled offline_s)
  else begin
    let prepared = prepare trace in
    Probe.reset_spans ();
    Probe.tracing := true;
    List.iter (fun loop -> ignore (run_loop env load loop prepared)) loops;
    Probe.tracing := false;
    let engine_s = engine_seconds () in
    Probe.reset_spans ();
    (env, Probe.scaled (offline_s +. engine_s))
  end
