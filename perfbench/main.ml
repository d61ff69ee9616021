(* Host-time benchmark of the MikPoly stack.

     main.exe --workload compile-cold|serve-nominal|serve-overload
              --seed N --seconds S --trace 0|1

   Every input is generated here from the seed; the layers under test
   only receive the generated shapes and traces. The run sets up several
   times (set-up time is reported as the median), measures whole rounds
   for at least S seconds, checks every output, prints a human-readable
   table and, as the last line of standard output, one JSON object: the
   end-to-end metrics with --trace 0, the per-layer metrics of a traced
   run with --trace 1. Each host time is scaled to a reference-speed host
   by a sample of the host's speed taken just before it was measured
   ({!Probe.scaled}). Exits 1 when a check fails. *)

module Stats = Mikpoly_util.Stats

module SW = Serve_work
module CW = Compile_work

type workload = Compile_cold | Serve_nominal | Serve_overload

let workloads =
  [
    ("compile-cold", Compile_cold);
    ("serve-nominal", Serve_nominal);
    ("serve-overload", Serve_overload);
  ]

(* Loads, in multiples of the [Serving_mix] tenant rates. *)
let nominal = { SW.mult = 5.; door = true; requests = 6000 }

let overload = { SW.mult = 50.; door = false; requests = 4000 }

(* compile-cold also serves a nominal trace from cold engines. *)
let cold_serve = { nominal with SW.requests = 3000 }

(* Distinct shapes compiled per pass: twenty beyond p99, so neither one
   draw of the shapes (compile-cold) nor one slow call moves the tail. *)
let compile_shapes = 2000

(* Every run draws this many traces from its seed; each round serves
   each of them once. *)
let traces = 6

let setups = 7

(* A traced run needs an untraced and a traced round. *)
let min_rounds = 2

let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let state_dir = ".perfbench"

type args = { workload : workload; name : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload compile-cold|serve-nominal|serve-overload \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v workloads with
      | Some w -> workload := Some (v, w)
      | None -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some (name, workload), Some seed, Some seconds, Some trace
    when seed >= 0 && seconds > 0. ->
    { workload; name; seed; seconds; trace }
  | _ -> usage ()

let deadline_after s =
  Int64.add (Probe.now_ns ()) (Int64.of_float (s *. 1e9))

(* --- Metrics ---------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let loop_prefix = function
  | SW.Sched -> "sched"
  | SW.Fleet_loop -> "fleet"
  | SW.Hetero_loop -> "hetero"

let end_to_end ~setup_s c s ~success_share =
  let per_loop f = List.map (fun l -> f (loop_prefix l) l) SW.loops in
  [ m "setup_s" "s" setup_s;
    m "compile_gpu_us_p50" "us" (CW.gpu_p50 c);
    m "compile_gpu_us_p99" "us" (CW.gpu_p99 c);
    m "compile_npu_us_p50" "us" (CW.npu_p50 c);
    m "compile_npu_us_p99" "us" (CW.npu_p99 c);
    m "program_tflops_geomean" "TFLOPS" c.CW.tflops_geomean ]
  @ per_loop (fun p l -> m (p ^ "_us_per_req") "us" (SW.us_per_req s l))
  @ per_loop (fun p l -> m (p ^ "_goodput_rps") "1/s" (SW.goodput s l))
  @ [ m "peak_heap_mb" "MB" (Probe.peak_heap_mb ());
      m "success_share" "ratio" success_share ]

let per_layer c s ~traced_wall ~overhead =
  let t = CW.tally c in
  let per_search x = Probe.ratio x (float_of_int t.CW.searches) in
  let ratio a b = Probe.ratio (float_of_int a) (float_of_int b) in
  let loop_metrics l =
    let sm = SW.summary s l and name = SW.loop_name l in
    [ m (name ^ ".steps") "count" (ratio sm.SW.steps (SW.n_traces s));
      m (name ^ ".self_us_per_step") "us" (SW.self_us_per_step s l);
      m (name ^ ".mean_queue_depth") "count" (ratio sm.SW.queue_depth_sum sm.SW.queue_samples);
      m (name ^ ".engine_calls_per_req") "count" (ratio sm.SW.engine_calls sm.SW.sent) ]
  in
  let hit_rate (st : Mikpoly_serve.Shape_cache.stats) = ratio st.hits (st.hits + st.misses) in
  let h = SW.summary s SW.Hetero_loop and f = SW.summary s SW.Fleet_loop in
  let sum f = List.fold_left (fun a l -> a +. f (List.assoc l SW.k_loop)) 0. SW.loops in
  let loops_total = sum Probe.total_s and loops_self = sum Probe.self_s in
  let engine_s = SW.engine_seconds () in
  let compile_s =
    Array.fold_left (fun a k -> a +. Probe.total_s k) (Probe.total_s CW.k_warm) CW.k_compile
  in
  [ m "core.polymerize.candidates_per_search" "count" (per_search (float_of_int t.CW.candidates));
    m "core.polymerize.pruned_analytic_per_search" "count"
      (per_search (float_of_int t.CW.pruned_analytic));
    m "core.polymerize.pruned_bound_per_search" "count"
      (per_search (float_of_int t.CW.pruned_bound));
    m "core.polymerize.minor_words_per_search" "words" (per_search t.CW.minor_words);
    m "core.cost_model.region_ns" "ns" c.CW.region_ns;
    m "core.search_batch.warm_shapes_per_s" "1/s" (CW.warm_rate c);
    m "core.search_batch.speedup_vs_jobs1" "x" (CW.warm_speedup c);
    m "accel.simulator.us_per_program" "us" c.CW.simulate_us ]
  @ List.concat_map loop_metrics SW.loops
  @ [ m "serve.shape_cache.hit_rate" "ratio" (hit_rate (SW.summary s SW.Sched).SW.cache);
      m "fleet.warm_hits" "count" (ratio f.SW.warm_hits (SW.n_traces s));
      m "fleet.coalesced_groups" "count" (ratio f.SW.coalesced (SW.n_traces s));
      m "hetero.reroutes" "count" (ratio h.SW.reroutes (SW.n_traces s));
      m "hetero.hedge_waste" "ratio" (ratio h.SW.hedge_cancels h.SW.hedges);
      m "hetero.store_hit_rate" "ratio" (hit_rate h.SW.store);
      m "engine.us_per_call" "us"
        (Probe.ratio
           (engine_s *. 1e6 *. Probe.run_scale ())
           (float_of_int (SW.engine_calls ())));
      m "engine.share_of_loop" "ratio" (Probe.ratio engine_s loops_total);
      m "run.core_accel_share" "ratio" (Probe.ratio (compile_s +. engine_s) traced_wall);
      m "run.loop_self_share" "ratio" (Probe.ratio loops_self traced_wall);
      m "telemetry.trace_overhead_ratio" "ratio" overhead ]

(* Traced over untraced host time of the measured work: one compile
   pass plus one run of each loop, each a median over its runs. *)
let trace_overhead c s =
  let work ~traced =
    List.fold_left
      (fun a l -> a +. SW.run_seconds s l ~traced)
      (Stats.median (if traced then c.CW.traced_pass_s else c.CW.pass_s))
      SW.loops
  in
  Probe.ratio (work ~traced:true) (work ~traced:false)

(* --- Deterministic counts ---------------------------------------------- *)

(* Counts that must repeat exactly for one seed: within the run (checked
   by the phases) and across runs (checked against the file an earlier
   run of the same binary and seed left behind). *)
let counts_text c s =
  let t = CW.tally c in
  [ Printf.sprintf "searches %d candidates %d pruned_analytic %d pruned_bound %d minor_words %.0f"
      t.CW.searches t.CW.candidates t.CW.pruned_analytic t.CW.pruned_bound t.CW.minor_words ]
  @ List.map
      (fun l ->
        let sm = SW.summary s l in
        Printf.sprintf "%s steps %d queue_depth_sum %d queue_samples %d engine_calls %d statuses %s"
          (SW.loop_name l) sm.SW.steps sm.SW.queue_depth_sum sm.SW.queue_samples
          sm.SW.engine_calls (Digest.to_hex (Digest.string sm.SW.digest)))
      SW.loops
  |> String.concat "\n"

(* Whether the counts agree with an earlier run's (true when this is the
   first run of this binary and seed). *)
let counts_repeat args text =
  let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path =
    Filename.concat state_dir (Printf.sprintf "counts-%s-%d-%s.txt" args.name args.seed exe)
  in
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all = text
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    true
  end

(* --- Report ------------------------------------------------------------ *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_accounting s ~cold =
  Printf.printf "%-16s %8s %9s %8s %12s %9s %6s\n"
    (if cold then "loop (cold)" else "loop")
    "sent" "completed" "dropped" "rate_limited" "timed_out" "failed";
  List.iter
    (fun l ->
      let s = SW.summary s l in
      Printf.printf "%-16s %8d %9d %8d %12d %9d %6d\n" (SW.loop_name l) s.SW.sent
        s.SW.completed s.SW.dropped s.SW.rate_limited s.SW.timed_out s.SW.failed)
    SW.loops

let () =
  let args = parse_args () in
  CW.single_domain ();
  let cold = args.workload = Compile_cold in
  let load =
    match args.workload with
    | Compile_cold -> cold_serve
    | Serve_nominal -> nominal
    | Serve_overload -> overload
  in
  let trace_list =
    List.init traces (fun i -> SW.trace ~seed:((args.seed * traces) + i) load)
  in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  (* Set-up, several times; the last environment is the one measured. *)
  let envs = List.init setups (fun _ -> SW.setup ~warm:(not cold) load (List.hd trace_list)) in
  let setup_s = Stats.median (List.map snd envs) in
  let env = fst (List.nth envs (setups - 1)) in
  let shapes =
    if cold then CW.stream ~seed:args.seed ~count:compile_shapes
    else SW.engine_shapes ~count:compile_shapes
  in
  let c = CW.create ~seed:args.seed ~jobs ~numeric:cold shapes in
  let s = SW.create ~fresh:cold env load trace_list in
  (* Measured rounds: for every trace, one compile pass and one serving
     rep of that trace, each after a {!Probe.settle}. A traced run
     alternates untraced and traced rounds. The deadline is checked after
     every trace, so a run overshoots it by one pass and rep at most. *)
  Probe.reset_spans ();
  let deadline = deadline_after args.seconds in
  let traced_wall = ref 0. in
  let steps = ref 0 in
  while !steps < min_rounds * traces || Probe.now_ns () < deadline do
    let round = !steps / traces and k = !steps mod traces in
    let traced = args.trace && round mod 2 = 1 in
    Probe.tracing := traced;
    Probe.settle ();
    let (), pass_s = Probe.timed (fun () -> CW.pass c ~traced) in
    Probe.settle ();
    let (), rep_s = Probe.timed (fun () -> SW.rep s ~timed:(not traced) k) in
    Probe.tracing := false;
    if traced then traced_wall := !traced_wall +. pass_s +. rep_s
    else if args.trace && k = traces - 1 then CW.warm_jobs1 c;
    incr steps
  done;
  let rounds = Float.of_int !steps /. Float.of_int traces in
  let total f = List.fold_left (fun a l -> a + f (SW.summary s l)) 0 SW.loops in
  let sent = total (fun x -> x.SW.sent) and completed = total (fun x -> x.SW.completed) in
  let lost = total (fun x -> if x.SW.conserved then 0 else x.SW.sent) in
  let programs = CW.programs c in
  (* A program fails its check; a request fails unless it completes
     (dropped, rate-limited, timed out or failed). *)
  let attempted = programs + sent in
  let succeeded = programs - c.CW.bad_programs + completed in
  let failed = attempted - succeeded in
  let success_share = float_of_int succeeded /. float_of_int attempted in
  let counts = counts_text c s in
  let counts_ok = counts_repeat args counts in
  let metrics =
    if args.trace then
      per_layer c s
        ~traced_wall:!traced_wall
        ~overhead:(trace_overhead c s)
    else end_to_end ~setup_s c s ~success_share
  in
  let checks =
    [ ( "programs byte-identical and numerically correct",
        c.CW.bad_programs = 0
        && ((not cold)
           || c.CW.numeric_checked > c.CW.multi_region_checked
              && c.CW.multi_region_checked
                 = CW.multi_per_platform * Array.length CW.platforms) );
      ("compile tallies repeat across passes", c.CW.repeat_ok);
      ("one terminal status per request in every loop", lost = 0);
      ("statuses and counts repeat across reps", s.SW.repeat_ok);
      ("counts repeat across runs of this seed", counts_ok);
      ("every metric finite", List.for_all (fun x -> Float.is_finite x.m_value) metrics) ]
  in
  let correct = List.for_all snd checks in
  if args.trace then
    Probe.write_trace
      (Filename.concat state_dir (Printf.sprintf "trace-%s-%d.json" args.name args.seed));
  Printf.printf
    "workload %s  seed %d  trace %d  rounds %.2f  shapes %d  traces %d x %d requests (%.0f req/s offered)\n"
    args.name args.seed (Bool.to_int args.trace) rounds (Array.length shapes) traces
    load.SW.requests (SW.offered_rps load);
  Printf.printf
    "compile: %d shapes per platform, %d passes; %d programs, %d numerically checked (%d multi-region)\n"
    (Array.length shapes) (CW.passes c) programs c.CW.numeric_checked c.CW.multi_region_checked;
  Printf.printf
    "host: reference work median %.3f ms over %d samples (nominal %.3f ms); median scale %.4f\n"
    (Stats.median !Probe.reference_samples *. 1e3)
    (List.length !Probe.reference_samples)
    (Probe.reference_nominal_s *. 1e3) (Probe.run_scale ());
  print_accounting s ~cold;
  print_endline counts;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-50s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  List.iter (fun x -> Printf.printf "%-46s %16.6f %s\n" x.m_name x.m_value x.m_unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.m_value)
              x.m_unit)
          metrics));
  exit (if correct then 0 else 1)
