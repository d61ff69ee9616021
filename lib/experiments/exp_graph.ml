(* Tentpole (new subsystem): whole-model graph serving. Models are
   typed operator DAGs with symbolic dynamic dimensions (lib/graph);
   the experiment runs the full pipeline per model — rewrite passes
   (sibling merge, epilogue fusion, GEMM chaining), shape inference at
   each request binding, liveness-based memory planning, and pipelined
   execution that overlaps op i+1's polymerization with op i's device
   time — then serves a whole-graph request stream and the equivalent
   per-operator stream through the same scheduler to compare SLO
   attainment. All quantities are simulated, so the report and the JSON
   gates are bit-identical across runs and [--jobs]. *)

open Mikpoly_util
module Symdim = Mikpoly_graph.Symdim
module Dag = Mikpoly_graph.Dag
module Infer = Mikpoly_graph.Infer
module Rewrite = Mikpoly_graph.Rewrite
module Memplan = Mikpoly_graph.Memplan
module Executor = Mikpoly_graph.Executor
module Model_graphs = Mikpoly_workloads.Model_graphs
open Mikpoly_serve

type bound_run = {
  br_env : Symdim.env;
  br_plan : Memplan.plan;
  br_seq : Executor.run;  (** sequential arm: compile then execute *)
  br_ovl : Executor.run;  (** pipelined arm: compile stream runs ahead *)
}

type model_run = {
  mr_model : string;
  mr_ops_before : int;
  mr_ops_after : int;
  mr_passes : Rewrite.stats list;
  mr_bounds : bound_run list;
}

let env_label env =
  String.concat "," (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) env)

let model_runs ~quick compiler =
  let backend = Executor.mikpoly_backend compiler in
  List.map
    (fun (e : Model_graphs.entry) ->
      let fused, passes = Rewrite.run e.Model_graphs.dag in
      let bounds =
        List.map
          (fun env ->
            let bound = Infer.bind_exn fused ~env in
            {
              br_env = env;
              br_plan = Memplan.plan bound;
              br_seq = Executor.execute ~overlap:false backend bound;
              br_ovl = Executor.execute backend bound;
            })
          e.Model_graphs.bindings
      in
      {
        mr_model = e.Model_graphs.model;
        mr_ops_before = Dag.op_count e.Model_graphs.dag;
        mr_ops_after = Dag.op_count fused;
        mr_passes = passes;
        mr_bounds = bounds;
      })
    (Model_graphs.suite ~quick)

(* Serving A/B: the same BERT-base work admitted as whole-graph
   requests versus one request per device operator. Both arms run the
   identical scheduler configuration, SLO and arrival process; the
   per-op arm encodes "operator i" as prompt length i+2 so its prefill
   step executes exactly that node's cost, and both arms spend one
   decode step (tokens = 1, a drain for the per-op arm) because the
   scheduler requires output_len >= 1. *)

type serving_result = {
  sr_graph : Metrics.t;
  sr_per_op : Metrics.t;
  sr_ops_per_request : int;  (** per-op requests standing in for one graph *)
}

let serving_ab ~quick compiler =
  let dag, _ =
    Rewrite.run (Model_graphs.transformer Mikpoly_nn.Transformer.bert_base)
  in
  let bind ~tokens = Infer.bind_exn dag ~env:[ ("seq", tokens) ] in
  let graph_engine = Scheduler.graph_engine ~name:"graph:bert-base" ~bind compiler in
  let backend = Executor.mikpoly_backend compiler in
  let seq_len = 64 in
  let costs = Array.of_list (Executor.node_costs backend (bind ~tokens:seq_len)) in
  let n_ops = Array.length costs in
  let per_op_engine =
    {
      Scheduler.engine_name = "per-op:bert-base";
      step_seconds =
        (fun ~tokens ~kv_tokens:_ ->
          if tokens <= 1 then backend.Executor.bk_launch
          else costs.((tokens - 2) mod n_ops).Executor.nc_exec_seconds);
      step_shapes =
        (fun ~tokens ->
          if tokens <= 1 then []
          else
            match costs.((tokens - 2) mod n_ops).Executor.nc_shape with
            | Some launch -> [ launch ]
            | None -> []);
      compile_seconds = backend.Executor.bk_compile;
      precompile_batch = backend.Executor.bk_precompile;
    }
  in
  let total =
    Array.fold_left
      (fun acc (c : Executor.node_cost) ->
        acc +. c.Executor.nc_exec_seconds +. c.Executor.nc_compile_seconds)
      0. costs
  in
  let slo = { Request.ttft = 20. *. total; e2e = 20. *. total } in
  let arrivals = if quick then 4 else 8 in
  let gap = 2. *. total in
  let graph_requests =
    List.init arrivals (fun r ->
        {
          Request.id = r;
          arrival = float_of_int r *. gap;
          prompt_len = seq_len;
          output_len = 1;
          slo;
        })
  in
  let per_op_requests =
    List.concat
      (List.init arrivals (fun r ->
           List.init n_ops (fun i ->
               {
                 Request.id = (r * n_ops) + i;
                 arrival = float_of_int r *. gap;
                 prompt_len = i + 2;
                 output_len = 1;
                 slo;
               })))
  in
  let config =
    {
      Scheduler.replicas = 2;
      batcher = Batcher.Greedy { max_batch = 1 };
      bucketing = Bucketing.Exact;
      cache_capacity = 64;
    }
  in
  {
    sr_graph = Metrics.of_outcome (Scheduler.run config graph_engine graph_requests);
    sr_per_op = Metrics.of_outcome (Scheduler.run config per_op_engine per_op_requests);
    sr_ops_per_request = n_ops;
  }

(* Acceptance gates, shared by the CLI subcommand and the bench stage.
   Every gate is a hard claim of the subsystem: pipelining strictly
   beats sequential compile-then-execute on every (model, binding),
   rewriting strictly shrinks every model, planning never allocates
   more than naive, and whole-graph serving attains at least the
   per-op stream's SLO fraction. *)

let gates runs serving =
  let per_bound mr f =
    List.map (fun br -> f mr br) mr.mr_bounds
  in
  let overlap =
    List.concat_map
      (fun mr ->
        per_bound mr (fun mr br ->
            {
              Gate.name =
                Printf.sprintf "overlap_beats_sequential[%s@%s]" mr.mr_model
                  (env_label br.br_env);
              ok = br.br_ovl.Executor.r_e2e_seconds < br.br_seq.Executor.r_e2e_seconds;
              detail =
                Printf.sprintf "overlap %.6es vs sequential %.6es"
                  br.br_ovl.Executor.r_e2e_seconds br.br_seq.Executor.r_e2e_seconds;
            }))
      runs
  in
  let shrink =
    List.map
      (fun mr ->
        {
          Gate.name = Printf.sprintf "rewrite_shrinks[%s]" mr.mr_model;
          ok = mr.mr_ops_after < mr.mr_ops_before;
          detail =
            Printf.sprintf "%d ops -> %d ops" mr.mr_ops_before mr.mr_ops_after;
        })
      runs
  in
  let plan =
    List.concat_map
      (fun mr ->
        per_bound mr (fun mr br ->
            {
              Gate.name =
                Printf.sprintf "plan_within_naive[%s@%s]" mr.mr_model
                  (env_label br.br_env);
              ok =
                br.br_plan.Memplan.planned_bytes <= br.br_plan.Memplan.naive_bytes;
              detail =
                Printf.sprintf "planned %.0fB vs naive %.0fB"
                  br.br_plan.Memplan.planned_bytes br.br_plan.Memplan.naive_bytes;
            }))
      runs
  in
  let slo =
    {
      Gate.name = "graph_slo_at_least_per_op";
      ok =
        serving.sr_graph.Metrics.slo_attainment
        >= serving.sr_per_op.Metrics.slo_attainment;
      detail =
        Printf.sprintf "graph %.4f vs per-op %.4f"
          serving.sr_graph.Metrics.slo_attainment
          serving.sr_per_op.Metrics.slo_attainment;
    }
  in
  overlap @ shrink @ plan @ [ slo ]

(* JSON for BENCH_graph.json and the CLI's --out: simulated quantities
   only, so the bytes are identical across runs and job counts. *)

let json ~quick runs serving =
  let module J = Mikpoly_telemetry.Json in
  let run_obj (r : Executor.run) =
    J.Obj
      [
        ("e2e_seconds", J.Number r.Executor.r_e2e_seconds);
        ("exec_seconds", J.Number r.Executor.r_exec_seconds);
        ("compile_seconds", J.Number r.Executor.r_compile_seconds);
        ("hidden_seconds", J.Number r.Executor.r_hidden_seconds);
        ("stall_seconds", J.Number r.Executor.r_stall_seconds);
        ("compiles", J.Number (float_of_int r.Executor.r_compiles));
        ("cache_hits", J.Number (float_of_int r.Executor.r_cache_hits));
        ("fused_bytes", J.Number r.Executor.r_fused_bytes);
        ("nodes", J.Number (float_of_int r.Executor.r_nodes));
      ]
  in
  let bound_obj br =
    J.Obj
      [
        ("binding", J.String (env_label br.br_env));
        ("naive_bytes", J.Number br.br_plan.Memplan.naive_bytes);
        ("planned_bytes", J.Number br.br_plan.Memplan.planned_bytes);
        ("peak_live_bytes", J.Number br.br_plan.Memplan.peak_live_bytes);
        ("resident_bytes", J.Number br.br_plan.Memplan.resident_bytes);
        ("reuse_ratio", J.Number (Memplan.reuse_ratio br.br_plan));
        ("sequential", run_obj br.br_seq);
        ("overlap", run_obj br.br_ovl);
      ]
  in
  let model_obj mr =
    J.Obj
      [
        ("model", J.String mr.mr_model);
        ("ops_before", J.Number (float_of_int mr.mr_ops_before));
        ("ops_after", J.Number (float_of_int mr.mr_ops_after));
        ( "passes",
          J.List
            (List.map
               (fun (s : Rewrite.stats) ->
                 J.Obj
                   [
                     ("pass", J.String s.Rewrite.pass_name);
                     ("rewrites", J.Number (float_of_int s.Rewrite.rewrites));
                   ])
               mr.mr_passes) );
        ("bindings", J.List (List.map bound_obj mr.mr_bounds));
      ]
  in
  let metrics_obj (m : Metrics.t) =
    J.Obj
      [
        ("requests", J.Number (float_of_int m.Metrics.requests));
        ("completed", J.Number (float_of_int m.Metrics.completed));
        ("slo_attainment", J.Number m.Metrics.slo_attainment);
        ("compile_stall_seconds", J.Number m.Metrics.compile_stall_seconds);
        ("makespan", J.Number m.Metrics.makespan);
        ("steps", J.Number (float_of_int m.Metrics.steps));
      ]
  in
  let gs = gates runs serving in
  J.Obj
    ([
      ("experiment", J.String "graph");
      ("quick", J.Bool quick);
      ("models", J.List (List.map model_obj runs));
      ( "serving",
        J.Obj
          [
            ( "ops_per_request",
              J.Number (float_of_int serving.sr_ops_per_request) );
            ("graph", metrics_obj serving.sr_graph);
            ("per_op", metrics_obj serving.sr_per_op);
          ] );
     ]
    @ Gate.json_fields gs)

let pass_rewrites mr name =
  match
    List.find_opt (fun (s : Rewrite.stats) -> s.Rewrite.pass_name = name) mr.mr_passes
  with
  | Some s -> s.Rewrite.rewrites
  | None -> 0

let report runs serving =
  let rewrite_table =
    Table.create ~title:"Graph rewriting (per model)"
      ~header:
        [ "model"; "ops"; "after passes"; "merged"; "epilogues"; "chains" ]
  in
  List.iter
    (fun mr ->
      Table.add_row rewrite_table
        [
          mr.mr_model;
          string_of_int mr.mr_ops_before;
          string_of_int mr.mr_ops_after;
          string_of_int (pass_rewrites mr "merge_siblings");
          string_of_int (pass_rewrites mr "fuse_epilogues");
          string_of_int (pass_rewrites mr "fuse_gemm_chains");
        ])
    runs;
  let pipeline_table =
    Table.create ~title:"Memory planning and compile/execute pipelining"
      ~header:
        [
          "model"; "binding"; "naive"; "planned"; "reuse"; "sequential";
          "pipelined"; "hidden"; "gain";
        ]
  in
  let speedups =
    List.concat_map
      (fun mr ->
        List.map
          (fun br ->
            let speedup =
              br.br_seq.Executor.r_e2e_seconds /. br.br_ovl.Executor.r_e2e_seconds
            in
            Table.add_row pipeline_table
              [
                mr.mr_model;
                env_label br.br_env;
                Table.fmt_bytes br.br_plan.Memplan.naive_bytes;
                Table.fmt_bytes br.br_plan.Memplan.planned_bytes;
                Printf.sprintf "%.0f%%" (100. *. Memplan.reuse_ratio br.br_plan);
                Table.fmt_time_us br.br_seq.Executor.r_e2e_seconds;
                Table.fmt_time_us br.br_ovl.Executor.r_e2e_seconds;
                Table.fmt_time_us br.br_ovl.Executor.r_hidden_seconds;
                Table.fmt_speedup speedup;
              ];
            speedup)
          mr.mr_bounds)
      runs
  in
  let serving_table =
    Table.create ~title:"Whole-graph vs per-operator serving (BERT-base)"
      ~header:Metrics.header
  in
  Table.add_row serving_table (Metrics.to_row ~label:"whole-graph" serving.sr_graph);
  Table.add_row serving_table
    (Metrics.to_row
       ~label:(Printf.sprintf "per-op x%d" serving.sr_ops_per_request)
       serving.sr_per_op);
  let gs = gates runs serving in
  {
    Exp.id = "graph";
    title = "Whole-model graph serving (new subsystem)";
    tables = [ rewrite_table; pipeline_table; serving_table ];
    summary =
      [
        Printf.sprintf
          "Rewrite passes shrink the %d models to %.0f%% of their device ops on average; pipelining polymerization under execution gains %.2fx mean e2e over compile-then-execute."
          (List.length runs)
          (100.
          *. Stats.mean
               (List.map
                  (fun mr ->
                    float_of_int mr.mr_ops_after /. float_of_int mr.mr_ops_before)
                  runs))
          (Stats.mean speedups);
        Printf.sprintf
          "Whole-graph serving attains %.1f%% SLO vs %.1f%% for the equivalent per-operator stream (%d requests per graph)."
          (100. *. serving.sr_graph.Metrics.slo_attainment)
          (100. *. serving.sr_per_op.Metrics.slo_attainment)
          serving.sr_ops_per_request;
        Gate.summary
          ~all_hold:
            "All graph gates hold (overlap, shrink, planning, serving SLO)."
          gs;
      ];
  }

let run ~quick =
  let compiler = Backends.gpu () in
  let runs = model_runs ~quick compiler in
  report runs (serving_ab ~quick compiler)

let exp =
  {
    Exp.id = "graph";
    title = "Whole-model graph serving (new subsystem)";
    paper_claim =
      "Section 7: extending on-the-fly polymerization beyond single operators \
       to whole dynamic-shape models (graph-level future work)";
    run;
  }
