(* Benchmark harness.

   Running this executable (a) reproduces every table and figure of the
   paper's evaluation through the experiment registry, printing the
   paper-style tables, and (b) runs one Bechamel micro-benchmark per
   experiment measuring the harness's own hot path (the online
   polymerization search, the Equation-2 cost model, the device simulator,
   …) — the quantities Figure 12a's overhead analysis depends on.

   Usage: main.exe [--quick] [--only STAGE[,STAGE]] [ids...]

   Stages, run in this order: experiments, micro, telemetry, parallel,
   graph, adapt, resilience, fleet, rank, hetero. [--only] restricts the
   run to the named stages (default: all of them); an unknown stage name
   exits with code 2. [ids] restrict the experiments stage to those
   experiment ids. *)

open Bechamel
open Toolkit

let quick = Array.exists (( = ) "--quick") Sys.argv

(* The stages named by [--only STAGE[,STAGE]]; empty runs them all. *)
let only =
  let rec find = function
    | [ "--only" ] ->
      prerr_endline "bench: --only needs a STAGE[,STAGE] list";
      exit 2
    | "--only" :: stages :: _ -> String.split_on_char ',' stages
    | _ :: rest -> find rest
    | [] -> []
  in
  find (Array.to_list Sys.argv)

let selected_ids =
  let rec ids = function
    | "--only" :: _ :: rest -> ids rest
    | a :: rest when String.starts_with ~prefix:"--" a -> ids rest
    | a :: rest -> a :: ids rest
    | [] -> []
  in
  ids (List.tl (Array.to_list Sys.argv))

let experiments () =
  match selected_ids with
  | [] -> Mikpoly_experiments.Registry.all
  | ids ->
    List.filter
      (fun (e : Mikpoly_experiments.Exp.t) -> List.mem e.id ids)
      Mikpoly_experiments.Registry.all

let run_experiments () =
  List.iter
    (fun (e : Mikpoly_experiments.Exp.t) ->
      let t0 = Unix.gettimeofday () in
      let report = e.run ~quick in
      Printf.printf "%s  [experiment wall time: %.2fs]\n\n%!"
        (Mikpoly_experiments.Exp.render report)
        (Unix.gettimeofday () -. t0))
    (experiments ())

(* --- Bechamel micro-benchmarks: one per experiment family --- *)

let micro_tests () =
  let open Mikpoly_experiments in
  let gpu = Backends.gpu () in
  let npu = Backends.npu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let op = Mikpoly_ir.Operator.gemm ~m:4096 ~n:1024 ~k:4096 () in
  let odd_op = Mikpoly_ir.Operator.gemm ~m:777 ~n:1234 ~k:555 () in
  let compiled = Mikpoly_core.Compiler.compile gpu op in
  let load = Mikpoly_ir.Program.to_load compiled.program in
  let cublas = Backends.cublas () in
  let entry = kernels.entries.(0) in
  let stage name f = Test.make ~name (Staged.stage f) in
  [
    (* fig1/fig6: a vendor-library dispatch (selection + simulation). *)
    stage "fig1/fig6: cuBLAS select+simulate" (fun () ->
        cublas.gemm ~m:4096 ~n:1024 ~k:4096);
    (* fig6/fig8: one full online polymerization on the GPU. *)
    stage "fig6/fig8: polymerize (4096,1024,4096) GPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize kernels config op);
    stage "fig6: polymerize odd shape GPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize kernels config odd_op);
    (* fig7: NPU polymerization explores all nine patterns. *)
    stage "fig7: polymerize (4096,1024,4096) NPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize
          (Mikpoly_core.Compiler.kernels npu)
          (Mikpoly_core.Compiler.config npu)
          op);
    (* fig12a: the Equation-2 cost model, the per-candidate unit of search. *)
    stage "fig12a: cost model (one region)" (fun () ->
        Mikpoly_core.Cost_model.region_cost Mikpoly_core.Cost_model.Full entry
          ~rows:4096 ~cols:1024 ~k_len:4096);
    (* fig12b/case_study: the event-driven device simulation. *)
    stage "fig12b/tab9: simulate polymerized program" (fun () ->
        Mikpoly_accel.Simulator.run Mikpoly_accel.Hardware.a100 load);
    (* fig13: one offline-stage candidate scoring. *)
    stage "fig13: offline synthetic scoring" (fun () ->
        Mikpoly_autosched.Autotuner.size_tflops Mikpoly_accel.Hardware.a100
          entry.desc ~size:1024);
    (* g_predict evaluation used by f_pipe. *)
    stage "fig12: g_predict eval" (fun () ->
        Mikpoly_autosched.Perf_model.predict_cycles entry.model ~t_steps:128);
    (* The functional executor's micro-kernel implementations. *)
    (let kd = Mikpoly_accel.Kernel_desc.make ~um:64 ~un:64 ~uk:64 () in
     let bufs = Mikpoly_ir.Kernel_exec.alloc kd in
     Array.iteri (fun i _ -> bufs.a_tile.(i) <- 1.) bufs.a_tile;
     Array.iteri (fun i _ -> bufs.b_tile.(i) <- 1.) bufs.b_tile;
     let naive = Mikpoly_ir.Kernel_exec.naive kd in
     stage "executor: naive 64x64x64 micro-kernel" (fun () -> naive bufs));
    (let kd = Mikpoly_accel.Kernel_desc.make ~um:64 ~un:64 ~uk:64 () in
     let bufs = Mikpoly_ir.Kernel_exec.alloc kd in
     Array.iteri (fun i _ -> bufs.a_tile.(i) <- 1.) bufs.a_tile;
     Array.iteri (fun i _ -> bufs.b_tile.(i) <- 1.) bufs.b_tile;
     let unrolled = Mikpoly_ir.Kernel_exec.unrolled kd in
     stage "executor: unrolled 64x64x64 micro-kernel" (fun () -> unrolled bufs));
    (* serving: the per-launch cache probe on the scheduler's hot path. *)
    (let open Mikpoly_serve in
     let cache = Shape_cache.create ~capacity:64 in
     let i = ref 0 in
     stage "serving: shape-cache find+add (64-way LRU)" (fun () ->
         incr i;
         let key = (256, !i mod 96, 512) in
         match Shape_cache.find cache key with
         | Some () -> ()
         | None -> Shape_cache.add cache key ()));
    (* serving: a full scheduler run over a small synthetic trace. *)
    (let open Mikpoly_serve in
     let engine = Scheduler.synthetic_engine () in
     let trace =
       Request.poisson ~seed:7 ~rate:50. ~count:32 ~max_prompt:64 ~max_output:8
         ()
     in
     let config =
       {
         Scheduler.replicas = 2;
         batcher = Batcher.Greedy { max_batch = 16 };
         bucketing = Bucketing.Aligned 8;
         cache_capacity = 32;
       }
     in
     stage "serving: schedule 32 requests (synthetic engine)" (fun () ->
         Scheduler.run config engine trace));
  ]

let run_micro () =
  let tests = micro_tests () in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.05 else 0.25))
      ~stabilize:true ()
  in
  let table =
    Mikpoly_util.Table.create ~title:"Bechamel micro-benchmarks"
      ~header:[ "benchmark"; "time/run" ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Mikpoly_util.Table.add_row table
            [ name; Mikpoly_util.Table.fmt_time_us (ns /. 1e9) ])
        analyzed)
    tests;
  print_endline (Mikpoly_util.Table.render table)

(* --- Telemetry overhead: tracing-off and tracing-on vs uninstrumented ---

   Times the two instrumented hot paths (online polymerization, the
   serving scheduler) in three modes and writes the overhead ratios to
   BENCH_telemetry.json. The tracing-off ratio is the number the no-op
   sink design is judged by (test_telemetry asserts < 5% on the same
   path); the tracing-on ratio is the price of actually capturing a
   trace. Best-of-batches timing keeps the numbers stable under noise. *)

let time_batch f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let best_of f ~reps ~batches =
  let best = ref infinity in
  for _ = 1 to batches do
    best := Float.min !best (time_batch f reps)
  done;
  !best

let run_telemetry_overhead () =
  let open Mikpoly_telemetry in
  let reps = if quick then 5 else 20 in
  let batches = if quick then 3 else 7 in
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let odd_op = Mikpoly_ir.Operator.gemm ~m:777 ~n:1234 ~k:555 () in
  let engine = Mikpoly_serve.Scheduler.synthetic_engine () in
  let trace =
    Mikpoly_serve.Request.poisson ~seed:7 ~rate:50. ~count:32 ~max_prompt:64
      ~max_output:8 ()
  in
  let sched_config =
    {
      Mikpoly_serve.Scheduler.replicas = 2;
      batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 16 };
      bucketing = Mikpoly_serve.Bucketing.Aligned 8;
      cache_capacity = 32;
    }
  in
  let measure f ~baseline =
    (* baseline: uninstrumented where the API offers it (polymerize's
       [~instrument:false]); otherwise tracing-off doubles as baseline. *)
    Tracer.reset ();
    Tracer.disable ();
    let base = best_of baseline ~reps ~batches in
    let off = best_of f ~reps ~batches in
    Tracer.enable ();
    let on =
      let best = ref infinity in
      for _ = 1 to batches do
        Tracer.reset ();
        (* spans from prior batches would only grow memory *)
        best := Float.min !best (time_batch f reps)
      done;
      !best
    in
    Tracer.disable ();
    Tracer.reset ();
    (base, off, on)
  in
  let bench name f ~baseline =
    let base, off, on = measure f ~baseline in
    Printf.printf
      "telemetry overhead %-28s base %s  off %s (%+.2f%%)  on %s (%+.2f%%)\n"
      name
      (Mikpoly_util.Table.fmt_time_us base)
      (Mikpoly_util.Table.fmt_time_us off)
      (100. *. ((off /. base) -. 1.))
      (Mikpoly_util.Table.fmt_time_us on)
      (100. *. ((on /. base) -. 1.));
    Json.Obj
      [
        ("name", Json.String name);
        ("uninstrumented_s", Json.Number base);
        ("tracing_off_s", Json.Number off);
        ("tracing_on_s", Json.Number on);
        ("tracing_off_ratio", Json.Number (off /. base));
        ("tracing_on_ratio", Json.Number (on /. base));
      ]
  in
  let rows =
    [
      bench "polymerize_odd_shape"
        (fun () -> Mikpoly_core.Polymerize.polymerize kernels config odd_op)
        ~baseline:(fun () ->
          Mikpoly_core.Polymerize.polymerize ~instrument:false kernels config
            odd_op);
      bench "serve_schedule_32_requests"
        (fun () -> Mikpoly_serve.Scheduler.run sched_config engine trace)
        ~baseline:(fun () ->
          Mikpoly_serve.Scheduler.run sched_config engine trace);
    ]
  in
  let path = "BENCH_telemetry.json" in
  let json =
    Json.Obj
      [
        ("reps_per_batch", Json.Number (float_of_int reps));
        ("batches", Json.Number (float_of_int batches));
        ("benchmarks", Json.List rows);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string json));
  Printf.printf "wrote %s\n%!" path

(* --- Parallel search scaling: jobs sweep over the Table-3 GEMM suite ---

   Two-level search economics. Level one: analytic strategy-space
   pruning — the jobs=1 sweep runs once with [analytic_prune] off to
   measure the scored-candidate reduction (gated >= 5x) and re-check
   the pruned program is byte-identical. Level two: coarse-grained
   parallelism — [Polymerize.search_batch] fans whole shapes (not
   per-pattern units) over the pool at jobs ∈ {1, 2, 4, 8}, checks
   every chosen program is byte-identical to the sequential one, and
   writes min-of-reps wall times, speedups and per-level candidate
   tallies to BENCH_parallel.json.

   Gate: on a host with more than one effective worker, jobs=4 must
   beat jobs=1 outright (speedup > 1.0) and jobs=8 must not degrade
   below jobs=4. On a single-core host a speedup is physically
   impossible — [effective_jobs] clamps every level to one worker —
   so the gate becomes: the clamp must hold batching overhead within
   10% of sequential, with programs still identical. The gate mode is
   recorded in the JSON so CI can see which contract was enforced. *)

let run_parallel_bench () =
  let open Mikpoly_telemetry in
  let module Dp = Mikpoly_util.Domain_pool in
  let job_counts = [ 1; 2; 4; 8 ] in
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let cases =
    let all = Mikpoly_workloads.Suite.table3_gemm () in
    if quick then List.filteri (fun i _ -> i mod 4 = 0) all else all
  in
  let ops =
    Array.of_list
      (List.map
         (fun (c : Mikpoly_workloads.Gemm_case.t) ->
           Mikpoly_ir.Operator.gemm ~m:c.m ~n:c.n ~k:c.k ())
         cases)
  in
  let n_shapes = Array.length ops in
  let batch ?(config = config) jobs =
    Mikpoly_core.Polymerize.search_batch ~instrument:false ~jobs ~min_chunk:1
      kernels config ops
  in
  ignore (batch 1);
  (* warm the domain pool, the allocator and the kernel-set cache *)
  let reps = if quick then 2 else 3 in
  let sweep jobs =
    let wall = ref infinity in
    let result = ref [||] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = batch jobs in
      wall := Float.min !wall (Unix.gettimeofday () -. t0);
      result := r
    done;
    (* per-shape compile latency: the stall an unlucky request sees when
       its shape misses every cache and polymerizes inline. One search
       never touches the pool (its units are sequential), so this runs
       the identical code path the batch runs per shape. *)
    let times =
      Array.to_list
        (Array.map
           (fun op ->
             let s = Unix.gettimeofday () in
             ignore
               (Mikpoly_core.Polymerize.polymerize ~instrument:false kernels
                  config op);
             Unix.gettimeofday () -. s)
           ops)
    in
    (!wall, times, !result)
  in
  let timed = List.map (fun j -> (j, sweep j)) job_counts in
  let _, (_, _, reference) = List.hd timed in
  let fingerprint (c : Mikpoly_core.Polymerize.compiled) =
    Mikpoly_ir.Program.to_string c.program
  in
  List.iter
    (fun (j, (_, _, compileds)) ->
      if Array.map fingerprint compileds <> Array.map fingerprint reference
      then begin
        Printf.eprintf
          "parallel bench: programs at jobs=%d differ from jobs=1\n" j;
        exit 1
      end)
    timed;
  let sum_candidates cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.candidates)
      0 cs
  in
  let sum_pruned_a cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.pruned_analytic)
      0 cs
  in
  let sum_pruned_b cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.pruned)
      0 cs
  in
  (* level one: the analytic-pruning win, measured against the same
     suite with pruning disabled (jobs=1; candidate tallies are
     job-count-invariant anyway) *)
  let unpruned =
    batch ~config:{ config with Mikpoly_core.Config.analytic_prune = false } 1
  in
  let pruned_cand = sum_candidates reference in
  let unpruned_cand = sum_candidates unpruned in
  let reduction =
    if pruned_cand > 0 then
      float_of_int unpruned_cand /. float_of_int pruned_cand
    else infinity
  in
  Printf.printf
    "analytic pruning: %d candidates scored vs %d unpruned (%.1fx fewer)\n"
    pruned_cand unpruned_cand reduction;
  if Array.map fingerprint unpruned <> Array.map fingerprint reference then begin
    Printf.eprintf "parallel bench: pruned programs differ from unpruned\n";
    exit 1
  end;
  if reduction < 5. then begin
    Printf.eprintf
      "parallel bench: pruning reduction %.2fx below the 5x gate\n" reduction;
    exit 1
  end;
  let t1 = match timed with (_, (t, _, _)) :: _ -> t | [] -> nan in
  let rows =
    List.map
      (fun (j, (t, times, compileds)) ->
        let p99 = Mikpoly_util.Stats.percentile 99. times in
        let ejobs = Dp.effective_jobs j in
        Printf.printf
          "parallel search jobs=%d (effective %d)  %d shapes in %s  (speedup \
           %.2fx, p99 compile %s, %d candidates)\n"
          j ejobs n_shapes
          (Mikpoly_util.Table.fmt_time_us t)
          (t1 /. t)
          (Mikpoly_util.Table.fmt_time_us p99)
          (sum_candidates compileds);
        Json.Obj
          [
            ("jobs", Json.Number (float_of_int j));
            ("effective_jobs", Json.Number (float_of_int ejobs));
            ("wall_seconds", Json.Number t);
            ("speedup_vs_jobs1", Json.Number (t1 /. t));
            ("compile_p99_seconds", Json.Number p99);
            ("candidates_scored", Json.Number (float_of_int (sum_candidates compileds)));
            ("pruned_analytic", Json.Number (float_of_int (sum_pruned_a compileds)));
            ("pruned_bound", Json.Number (float_of_int (sum_pruned_b compileds)));
            ("programs_identical", Json.Bool true);
          ])
      timed
  in
  let wall_at j =
    match List.assoc_opt j timed with Some (t, _, _) -> t | None -> nan
  in
  let multicore = Dp.effective_jobs 4 > 1 in
  let gate_ok =
    if multicore then
      t1 /. wall_at 4 > 1.0 && wall_at 8 <= wall_at 4 *. 1.05
    else
      (* single core: the clamp must keep the batch machinery free —
         within 10% of plain sequential *)
      wall_at 4 <= t1 *. 1.10 && wall_at 8 <= t1 *. 1.10
  in
  if not gate_ok then begin
    Printf.eprintf
      "parallel bench: %s gate failed (jobs1 %.4fs, jobs4 %.4fs, jobs8 %.4fs)\n"
      (if multicore then "speedup" else "single-core overhead")
      t1 (wall_at 4) (wall_at 8);
    exit 1
  end;
  let path = "BENCH_parallel.json" in
  let json =
    Json.Obj
      [
        ("suite", Json.String "table3_gemm");
        ("shapes", Json.Number (float_of_int n_shapes));
        ("host_cores", Json.Number (float_of_int (Dp.host_cores ())));
        ( "recommended_domains",
          Json.Number (float_of_int (Domain.recommended_domain_count ())) );
        ( "pruning",
          Json.Obj
            [
              ("candidates_scored", Json.Number (float_of_int pruned_cand));
              ("candidates_unpruned", Json.Number (float_of_int unpruned_cand));
              ("reduction", Json.Number reduction);
              ("programs_identical", Json.Bool true);
            ] );
        ( "gate",
          Json.Obj
            [
              ( "mode",
                Json.String
                  (if multicore then "multicore_speedup"
                   else "single_core_fallback") );
              ("passed", Json.Bool true);
            ] );
        ("sweep", Json.List rows);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string json));
  Printf.printf "wrote %s\n%!" path

(* The body shared by the gated-report stages (graph, fleet, rank,
   hetero): [render ()] builds the stage's results and JSON report from
   fresh state; it runs at 1 and then at 4 worker domains and the two
   reports must be byte-identical. Every gate must then hold, and the
   jobs=1 report is written to BENCH_<name>.json. Any failure exits 1. *)
let run_gated_report name ~render ~gates =
  let module Dp = Mikpoly_util.Domain_pool in
  let saved_jobs = Dp.default_jobs () in
  let render_at jobs =
    Dp.set_default_jobs jobs;
    render ()
  in
  let r, json1 =
    Fun.protect
      ~finally:(fun () -> Dp.set_default_jobs saved_jobs)
      (fun () ->
        let ((_, json1) as result) = render_at 1 in
        let _, json4 = render_at 4 in
        if json1 <> json4 then begin
          Printf.eprintf "%s bench: report at jobs=4 differs from jobs=1\n"
            name;
          exit 1
        end;
        result)
  in
  let gs = gates r in
  if not (Mikpoly_experiments.Gate.all_hold ~prefix:(name ^ " bench:") gs)
  then exit 1;
  Printf.printf "%s bench: %d gates hold, report identical across --jobs\n"
    name (List.length gs);
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json1);
  Printf.printf "wrote %s\n%!" path

(* --- Whole-model graph serving: acceptance gates + jobs invariance ---

   Runs the lib/graph pipeline (rewrite passes, memory planning,
   pipelined compile/execute) over the model-graph suite plus the
   whole-graph vs per-operator serving A/B, asserts the acceptance
   gates hard (pipelining strictly beats sequential compile-then-execute
   on every model and binding, rewriting strictly shrinks every model,
   planning never exceeds naive allocation, whole-graph SLO attainment
   is at least the per-op stream's), re-runs everything on a fresh
   compiler at a different worker-domain count and requires the
   byte-identical report, then writes BENCH_graph.json. *)

let run_graph_bench () =
  let module E = Mikpoly_experiments.Exp_graph in
  run_gated_report "graph"
    ~render:(fun () ->
      let compiler = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
      let runs = E.model_runs ~quick compiler in
      let serving = E.serving_ab ~quick compiler in
      ( (runs, serving),
        Mikpoly_telemetry.Json.to_string (E.json ~quick runs serving) ))
    ~gates:(fun (runs, serving) -> E.gates runs serving)

(* --- Online adaptation: drift scenario plus a serving SLO A/B ---

   Runs the lib/adapt drift scenario (the cost model goes stale halfway
   through an observation trace) and asserts the acceptance criteria hard:
   held-out Kendall-tau strictly improves after calibration with top-1
   regret no worse, the detector fires, and attaching the adaptation loop
   to a healthy serving deployment does not hurt SLO attainment. Writes
   BENCH_adapt.json. *)

let run_adapt_bench () =
  let open Mikpoly_telemetry in
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let trace = if quick then 32 else 48 in
  let r = Mikpoly_adapt.Scenario.run ~trace compiler in
  let stats = Mikpoly_adapt.Adapter.stats r.adapter in
  Printf.printf
    "adapt drift scenario: tau %.4f -> %.4f, regret %.2f%% -> %.2f%%, %d \
     drift event(s) after %d observation(s), stall %s\n%!"
    r.before.tau r.after.tau
    (100. *. r.before.top1_regret)
    (100. *. r.after.top1_regret)
    stats.drift_events r.reaction_observations
    (Mikpoly_util.Table.fmt_time_us r.stall_seconds);
  if stats.drift_events < 1 then begin
    Printf.eprintf "adapt bench: the drift detector never fired\n";
    exit 1
  end;
  if not (r.after.tau > r.before.tau) then begin
    Printf.eprintf
      "adapt bench: calibration did not improve Kendall-tau (%.4f -> %.4f)\n"
      r.before.tau r.after.tau;
    exit 1
  end;
  if r.after.top1_regret > r.before.top1_regret +. 1e-9 then begin
    Printf.eprintf
      "adapt bench: top-1 regret regressed (%.4f -> %.4f)\n"
      r.before.top1_regret r.after.top1_regret;
    exit 1
  end;
  (* Serving A/B on a healthy device: same trace and config, with and
     without the adaptation loop attached. The detector must stay quiet
     and SLO attainment must not drop. *)
  let serve_config =
    {
      Mikpoly_serve.Scheduler.replicas = 2;
      batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 32 };
      bucketing = Mikpoly_serve.Bucketing.Aligned 8;
      cache_capacity = 64;
    }
  in
  let requests =
    Mikpoly_serve.Request.poisson ~seed:0x5E2 ~rate:30.
      ~count:(if quick then 16 else 48)
      ~max_prompt:64 ~max_output:8 ()
  in
  let serve_metrics ~adapted =
    let c = Mikpoly_core.Compiler.create hw in
    let adapter =
      if adapted then Some (Mikpoly_adapt.Adapter.create c) else None
    in
    let adapt =
      Option.map
        (fun a () -> Mikpoly_adapt.Adapter.drain_stall_seconds a)
        adapter
    in
    let engine = Mikpoly_serve.Scheduler.mikpoly_engine c in
    Mikpoly_serve.Metrics.of_outcome
      (Mikpoly_serve.Scheduler.run ?adapt serve_config engine requests)
  in
  let without = serve_metrics ~adapted:false in
  let with_adapt = serve_metrics ~adapted:true in
  Printf.printf
    "adapt serving A/B: SLO attainment %.1f%% without vs %.1f%% with \
     adaptation (adapt stall %s)\n%!"
    (100. *. without.slo_attainment)
    (100. *. with_adapt.slo_attainment)
    (Mikpoly_util.Table.fmt_time_us with_adapt.adapt_stall_seconds);
  if with_adapt.slo_attainment < without.slo_attainment -. 1e-9 then begin
    Printf.eprintf
      "adapt bench: SLO attainment regressed with adaptation (%.4f -> %.4f)\n"
      without.slo_attainment with_adapt.slo_attainment;
    exit 1
  end;
  let path = "BENCH_adapt.json" in
  let json =
    Json.Obj
      [
        ("trace_length", Json.Number (float_of_int r.trace_length));
        ("tau_before", Json.Number r.before.tau);
        ("tau_after", Json.Number r.after.tau);
        ("top1_regret_before", Json.Number r.before.top1_regret);
        ("top1_regret_after", Json.Number r.after.top1_regret);
        ("holdout_shapes", Json.Number (float_of_int r.before.samples));
        ("drift_events", Json.Number (float_of_int stats.drift_events));
        ( "drift_reaction_observations",
          Json.Number (float_of_int r.reaction_observations) );
        ("programs_invalidated", Json.Number (float_of_int stats.invalidated));
        ("hot_shapes_recompiled", Json.Number (float_of_int stats.recompiles));
        ("recompile_stall_seconds", Json.Number r.stall_seconds);
        ("serving_slo_without_adapt", Json.Number without.slo_attainment);
        ("serving_slo_with_adapt", Json.Number with_adapt.slo_attainment);
        ( "serving_adapt_stall_seconds",
          Json.Number with_adapt.adapt_stall_seconds );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string json));
  Printf.printf "wrote %s\n%!" path

(* Resilience chaos bench: the acceptance gate of the fault-injection
   plane.

   Runs the canonical seeded chaos A/B (the same fault plan with and
   without the resilience machinery) and asserts hard: faults were
   actually injected in both arms, no request was lost silently in
   either arm, SLO attainment with resilience strictly beats without,
   and the per-request terminal-status digests are bit-identical at 1
   and 4 worker domains. Writes BENCH_resilience.json. *)

let run_resilience_bench () =
  let open Mikpoly_telemetry in
  let module R = Mikpoly_serve.Resilience in
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let ab, n_req =
    Mikpoly_experiments.Exp_resilience.chaos_ab ~jobs:1 ~quick compiler
  in
  let ab4, _ =
    Mikpoly_experiments.Exp_resilience.chaos_ab ~jobs:4 ~quick compiler
  in
  let on = ab.R.with_resilience and off = ab.R.without_resilience in
  Printf.printf
    "resilience chaos A/B: %d requests, %d injected fault(s) (%d crash(es)); \
     SLO attainment %.1f%% with resilience vs %.1f%% without; %d retried \
     attempt(s); silent losses %d/%d\n%!"
    n_req on.R.injected_faults on.R.crashes
    (100. *. on.R.metrics.Mikpoly_serve.Metrics.slo_attainment)
    (100. *. off.R.metrics.Mikpoly_serve.Metrics.slo_attainment)
    on.R.metrics.Mikpoly_serve.Metrics.retries on.R.silent_losses
    off.R.silent_losses;
  if on.R.injected_faults = 0 || off.R.injected_faults = 0 then begin
    Printf.eprintf "resilience bench: the fault plan injected nothing\n";
    exit 1
  end;
  if not (R.no_silent_losses ab) then begin
    Printf.eprintf
      "resilience bench: a request was lost silently (on %d, off %d)\n"
      on.R.silent_losses off.R.silent_losses;
    exit 1
  end;
  if not (R.resilience_wins ab) then begin
    Printf.eprintf
      "resilience bench: resilience did not beat the unprotected arm \
       (%.4f vs %.4f)\n"
      on.R.metrics.Mikpoly_serve.Metrics.slo_attainment
      off.R.metrics.Mikpoly_serve.Metrics.slo_attainment;
    exit 1
  end;
  if
    ab4.R.with_resilience.R.status_digest <> on.R.status_digest
    || ab4.R.without_resilience.R.status_digest <> off.R.status_digest
  then begin
    Printf.eprintf
      "resilience bench: outcomes differ across worker-domain counts\n";
    exit 1
  end;
  let path = "BENCH_resilience.json" in
  let arm name (a : R.arm) =
    ( name,
      Json.Obj
        [
          ( "slo_attainment",
            Json.Number a.R.metrics.Mikpoly_serve.Metrics.slo_attainment );
          ( "completed",
            Json.Number
              (float_of_int a.R.metrics.Mikpoly_serve.Metrics.completed) );
          ( "failed",
            Json.Number (float_of_int a.R.metrics.Mikpoly_serve.Metrics.failed)
          );
          ( "timed_out",
            Json.Number
              (float_of_int a.R.metrics.Mikpoly_serve.Metrics.timed_out) );
          ( "retries",
            Json.Number (float_of_int a.R.metrics.Mikpoly_serve.Metrics.retries)
          );
          ("injected_faults", Json.Number (float_of_int a.R.injected_faults));
          ("crashes", Json.Number (float_of_int a.R.crashes));
          ("silent_losses", Json.Number (float_of_int a.R.silent_losses));
          ("status_digest", Json.String a.R.status_digest);
        ] )
  in
  let json =
    Json.Obj
      [
        ("requests", Json.Number (float_of_int n_req));
        ("seed", Json.Number (float_of_int ab.R.faults.Mikpoly_fault.Plan.seed));
        arm "with_resilience" on;
        arm "without_resilience" off;
        ("jobs_invariant", Json.Bool true);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string json));
  Printf.printf "wrote %s\n%!" path

(* --- Multi-tenant fleet serving: acceptance gates + jobs invariance ---

   Runs the lib/fleet goodput A/B (WFQ + coalescing + warm store +
   autoscaler vs the tenant-blind scheduler) on the heavy-tail
   multi-tenant trace, asserts the acceptance gates hard (fleet goodput
   beats the baseline at equal replicas, no tier starved and the tier
   order respected, coalescing strictly cuts compile stalls, the warm
   store engages, the autoscaler meets SLO on fewer replica-seconds
   than the static fleet), re-runs everything on a fresh compiler at a
   different worker-domain count and requires the byte-identical
   report, then writes BENCH_fleet.json. *)

let run_fleet_bench () =
  let module E = Mikpoly_experiments.Exp_fleet in
  run_gated_report "fleet"
    ~render:(fun () ->
      let compiler = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
      let r = E.results ~quick compiler in
      (r, Mikpoly_telemetry.Json.to_string (E.json r)))
    ~gates:E.gates

(* --- Learned candidate ranking: acceptance gates + jobs invariance ---

   Runs the lib/rank offline-train / online-order pipeline under the
   stale-model drift regime on both fingerprints, asserts the acceptance
   gates hard (held-out tau and top-1 regret strictly better than
   calibrated Eq. 2 fit from the same observations on both platforms, the
   GPU→NPU warm start beats a cold fit of the same budget on top-1
   regret, untruncated searches bit-identical with the ranker on or off,
   strictly fewer scored candidates to reach the search winner, and
   deadline-truncated searches keeping the full-search program at least
   as often), re-renders at a different worker-domain count and requires
   the byte-identical report, then writes BENCH_rank.json. *)

let run_rank_bench () =
  let module E = Mikpoly_experiments.Exp_rank in
  run_gated_report "rank"
    ~render:(fun () ->
      let r = E.results ~quick in
      (r, Mikpoly_telemetry.Json.to_string (E.json r)))
    ~gates:E.gates

(* --- Heterogeneous fleet: acceptance gates + jobs invariance ---

   Runs the lib/hetero mixed GPU+NPU fleet against the equal-PE
   single-backend baselines and the chaos failover pair, asserts the
   acceptance gates hard (mixed strictly beats both single-backend
   fleets on goodput at equal-or-fewer PEs, failover strictly beats
   no-failover on SLO attainment under the same outage, the breaker
   trips and re-closes through a half-open probe, hedges and the
   brown-out ladder engage, and every arm conserves its terminal-status
   ledger — no admitted request silently lost), re-renders at a
   different worker-domain count and requires the byte-identical
   report, then writes BENCH_hetero.json. *)

let run_hetero_bench () =
  let module E = Mikpoly_experiments.Exp_hetero in
  run_gated_report "hetero"
    ~render:(fun () ->
      let r = E.results ~quick in
      (r, Mikpoly_telemetry.Json.to_string (E.json r)))
    ~gates:E.gates

let () =
  let stages =
    [
      ("experiments", run_experiments);
      ("micro", run_micro);
      ("telemetry", run_telemetry_overhead);
      ("parallel", run_parallel_bench);
      ("graph", run_graph_bench);
      ("adapt", run_adapt_bench);
      ("resilience", run_resilience_bench);
      ("fleet", run_fleet_bench);
      ("rank", run_rank_bench);
      ("hetero", run_hetero_bench);
    ]
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name stages) then begin
        Printf.eprintf "bench: unknown stage %S (stages: %s)\n" name
          (String.concat "," (List.map fst stages));
        exit 2
      end)
    only;
  List.iter
    (fun (name, run) -> if only = [] || List.mem name only then run ())
    stages
