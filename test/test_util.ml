(* Tests for the utility substrate: PRNG, statistics, piecewise-linear
   fitting, heap and table rendering. *)

open Mikpoly_util

let check_float = Alcotest.(check (float 1e-9))

let qtest = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_prng_int_in_singleton () =
  let rng = Prng.create 5 in
  Alcotest.(check int) "degenerate range" 42 (Prng.int_in rng 42 42)

let test_prng_float_range () =
  let rng = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_prng_float_varies () =
  let rng = Prng.create 8 in
  let xs = List.init 50 (fun _ -> Prng.float rng 1.) in
  let distinct = List.sort_uniq compare xs in
  Alcotest.(check bool) "many distinct draws" true (List.length distinct > 40)

let test_prng_log_int_in_bounds () =
  let rng = Prng.create 9 in
  for _ = 1 to 2000 do
    let v = Prng.log_int_in rng 3 5000 in
    Alcotest.(check bool) "in [3,5000]" true (v >= 3 && v <= 5000)
  done

let test_prng_log_int_in_spreads () =
  let rng = Prng.create 10 in
  let draws = List.init 500 (fun _ -> Prng.log_int_in rng 1 4096) in
  let small = List.length (List.filter (fun v -> v <= 64) draws) in
  let large = List.length (List.filter (fun v -> v > 512) draws) in
  Alcotest.(check bool) "log-uniform hits both ends" true (small > 50 && large > 50)

let test_prng_split_independent () =
  let parent = Prng.create 11 in
  let child = Prng.split parent in
  let xs = List.init 20 (fun _ -> Prng.int parent 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int child 1_000_000) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let test_prng_choice_shuffle () =
  let rng = Prng.create 12 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    let v = Prng.choice rng arr in
    Alcotest.(check bool) "choice member" true (Array.exists (( = ) v) arr)
  done;
  let arr2 = Array.init 100 Fun.id in
  Prng.shuffle rng arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 100 Fun.id) sorted

let test_prng_invalid_args () =
  let rng = Prng.create 13 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 5 4))

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ] ** 3. /. 4.)

let test_stats_geomean_simple () =
  check_float "geomean of equal" 3. (Stats.geomean [ 3.; 3.; 3. ])

let test_stats_median () =
  check_float "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even median" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p0" 0. (Stats.percentile 0. xs);
  check_float "p100" 100. (Stats.percentile 100. xs);
  check_float "p50" 50. (Stats.percentile 50. xs)

let test_stats_stddev () =
  check_float "stddev" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_minmax_sum () =
  check_float "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  check_float "sum" 6. (Stats.sum [ 3.; 1.; 2. ])

let test_stats_pearson () =
  let pairs = List.init 10 (fun i -> (float_of_int i, 2. *. float_of_int i +. 1.)) in
  check_float "perfect correlation" 1. (Stats.pearson pairs);
  let anti = List.init 10 (fun i -> (float_of_int i, -.float_of_int i)) in
  check_float "perfect anticorrelation" (-1.) (Stats.pearson anti)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 [ 0.; 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "bins" 4 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 5 total

let test_stats_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* --- Piecewise --- *)

let test_piecewise_exact_interp () =
  let f = Piecewise.of_points [ (0., 0.); (1., 10.); (2., 0.) ] in
  check_float "at breakpoint" 10. (Piecewise.eval f 1.);
  check_float "midpoint" 5. (Piecewise.eval f 0.5);
  check_float "second segment" 5. (Piecewise.eval f 1.5)

let test_piecewise_extrapolation () =
  let f = Piecewise.of_points [ (1., 1.); (2., 2.) ] in
  check_float "left extrapolation" 0. (Piecewise.eval f 0.);
  check_float "right extrapolation" 4. (Piecewise.eval f 4.)

let test_piecewise_fit_linear_collapses () =
  let samples = List.init 50 (fun i -> (float_of_int i, 3. *. float_of_int i +. 2.)) in
  let f = Piecewise.fit samples in
  Alcotest.(check bool) "few breakpoints" true
    (List.length (Piecewise.breakpoints f) <= 3);
  check_float "still accurate" 0. (Piecewise.max_rel_error f samples)

let test_piecewise_fit_error_bound () =
  let g x = if x < 10. then 5. +. (2. *. x) else 25. +. (0.5 *. (x -. 10.)) in
  let samples = List.init 100 (fun i -> (float_of_int i, g (float_of_int i))) in
  let f = Piecewise.fit ~tolerance:0.01 samples in
  Alcotest.(check bool) "error within 2x tolerance" true
    (Piecewise.max_rel_error f samples <= 0.02)

let test_piecewise_duplicate_abscissa () =
  Alcotest.check_raises "duplicate x"
    (Invalid_argument "Piecewise.of_points: duplicate abscissa") (fun () ->
      ignore (Piecewise.of_points [ (1., 1.); (1., 2.) ]))

let test_piecewise_degenerate_inputs () =
  (* A piecewise-linear function needs two knots: the empty and
     single-knot models are rejected, never silently constant. *)
  Alcotest.check_raises "empty"
    (Invalid_argument "Piecewise.of_points: need >= 2 points") (fun () ->
      ignore (Piecewise.of_points []));
  Alcotest.check_raises "single knot"
    (Invalid_argument "Piecewise.of_points: need >= 2 points") (fun () ->
      ignore (Piecewise.of_points [ (1., 1.) ]))

let test_piecewise_non_monotone_input () =
  (* Knots given out of abscissa order define the same function as the
     sorted ones — construction sorts, it does not trust input order. *)
  let shuffled = Piecewise.of_points [ (2., 0.); (0., 0.); (1., 10.) ] in
  let sorted = Piecewise.of_points [ (0., 0.); (1., 10.); (2., 0.) ] in
  List.iter
    (fun x ->
      check_float
        (Printf.sprintf "same value at %g" x)
        (Piecewise.eval sorted x) (Piecewise.eval shuffled x))
    [ -1.; 0.; 0.5; 1.; 1.5; 2.; 3. ];
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "breakpoints sorted"
    (Piecewise.breakpoints sorted)
    (Piecewise.breakpoints shuffled)

let test_piecewise_far_extrapolation () =
  (* Out-of-range queries follow the terminal segments linearly, even far
     beyond the knot span — the calibration layer leans on this when a
     shape is much larger than anything observed. *)
  let f = Piecewise.of_points [ (0., 0.); (10., 20.) ] in
  check_float "far right" 200. (Piecewise.eval f 100.);
  check_float "far left" (-200.) (Piecewise.eval f (-100.))

(* --- Kendall tau --- *)

let test_kendall_tau_perfect () =
  let pairs = List.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) in
  check_float "monotone agreement" 1. (Stats.kendall_tau pairs);
  let anti = List.init 10 (fun i -> (float_of_int i, -.float_of_int i)) in
  check_float "monotone disagreement" (-1.) (Stats.kendall_tau anti)

let test_kendall_tau_partial () =
  (* One swapped adjacent pair out of four items: 5 concordant pairs, 1
     discordant, tau = (5 - 1) / 6. *)
  let pairs = [ (1., 1.); (2., 3.); (3., 2.); (4., 4.) ] in
  check_float "one inversion" (4. /. 6.) (Stats.kendall_tau pairs)

let test_kendall_tau_ties () =
  (* tau-b: tied pairs count in neither numerator side and shrink the
     denominator. All-tied y degenerates to 0, not a crash. *)
  check_float "all tied" 0.
    (Stats.kendall_tau [ (1., 5.); (2., 5.); (3., 5.) ]);
  (* The mirror regression: a constant {e predictor} (all-tied x) must
     also score 0, never a spurious 1 — under naive tau a constant
     scorer has no discordant pairs and would look like perfect ranking.
     The ranking evaluator leans on this when a scorer degenerates. *)
  check_float "constant predictor" 0.
    (Stats.kendall_tau [ (5., 1.); (5., 2.); (5., 3.) ]);
  check_float "all pairs tied both ways" 0.
    (Stats.kendall_tau [ (5., 7.); (5., 7.); (5., 7.) ]);
  (* Partial ties: 3 items, x ties the first two. Untied pairs are
     (1,3) and (2,3), both concordant; tau-b = 2 / sqrt(2 * 3). *)
  check_float "partial x ties"
    (2. /. sqrt 6.)
    (Stats.kendall_tau [ (5., 1.); (5., 2.); (6., 3.) ]);
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Stats.kendall_tau: need at least two samples")
    (fun () -> ignore (Stats.kendall_tau [ (1., 1.) ]))

let prop_piecewise_interpolates =
  QCheck.Test.make ~name:"piecewise: exact interpolant hits every sample" ~count:50
    QCheck.(list_of_size (Gen.int_range 2 20) (pair (float_range 0. 1000.) (float_range 1. 1000.)))
    (fun pts ->
      let dedup =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) pts
      in
      QCheck.assume (List.length dedup >= 2);
      let f = Piecewise.of_points dedup in
      List.for_all (fun (x, y) -> abs_float (Piecewise.eval f x -. y) < 1e-6 *. (1. +. abs_float y)) dedup)

(* --- Heap --- *)

let test_heap_sorted_pops () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 8; 9 ] (drain [])

let test_heap_peek () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "size" 2 (Heap.size h)

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap: drains in sorted order" ~count:100
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== t")

let test_table_row_width_mismatch () =
  let t = Table.create ~title:"t" ~header:[ "a" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row: row width does not match header") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_csv_quoting () =
  let t = Table.create ~title:"t" ~header:[ "a" ] in
  Table.add_row t [ "x,y" ];
  Alcotest.(check string) "quoted" "a\n\"x,y\"" (Table.to_csv t)

let test_table_fmt () =
  Alcotest.(check string) "speedup" "1.49x" (Table.fmt_speedup 1.49);
  Alcotest.(check string) "us" "2.00us" (Table.fmt_time_us 2e-6);
  Alcotest.(check string) "ms" "1.500ms" (Table.fmt_time_us 1.5e-3)

(* --- Domain_pool --- *)

let test_pool_parallel_for_covers () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let n = 1000 in
      let acc = Array.make n 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:n
        (fun i -> acc.(i) <- (i * i) + 1);
      Alcotest.(check bool) "every index ran exactly once" true
        (acc = Array.init n (fun i -> (i * i) + 1)))

exception Boom

let test_pool_exception_propagates_and_drains () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      (match
         Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:100
           (fun i -> if i = 37 then raise Boom)
       with
      | () -> Alcotest.fail "expected Boom to propagate"
      | exception Boom -> ());
      (* the failed region must leave the pool drained and usable *)
      let hits = Atomic.make 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:64
        (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool usable after failure" 64 (Atomic.get hits))

let test_pool_nested_submit_runs_inline () =
  Domain_pool.with_pool ~jobs:2 (fun pool ->
      let outer = Atomic.make 0 and inner = Atomic.make 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:4
        (fun _ ->
          Atomic.incr outer;
          (* a body calling back into its own pool must not deadlock *)
          Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:3
            (fun _ -> Atomic.incr inner));
      Alcotest.(check int) "outer bodies" 4 (Atomic.get outer);
      Alcotest.(check int) "inner bodies" 12 (Atomic.get inner))

let test_pool_jobs1_and_shutdown_idempotent () =
  let pool = Domain_pool.create ~jobs:1 in
  let hits = ref 0 in
  Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:5
    (fun _ -> incr hits);
  Alcotest.(check int) "jobs=1 runs inline" 5 !hits;
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* submitting to a shut-down pool degrades to sequential *)
  Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:3
    (fun _ -> incr hits);
  Alcotest.(check int) "after shutdown" 8 !hits

let test_pool_shutdown_runs_inline () =
  (* a multi-worker pool after shutdown: the region falls back to the
     caller instead of waiting on joined workers *)
  let pool = Domain_pool.create ~jobs:2 in
  Domain_pool.shutdown pool;
  let hits = ref 0 in
  Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:10
    (fun _ -> incr hits);
  Alcotest.(check int) "covers" 10 !hits;
  Alcotest.(check int) "zero dispatches" 0 (Domain_pool.dispatches pool)

let test_pool_batched_covers () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let n = 1000 in
      let acc = Array.make n 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:16 ~start:0 ~stop:n
        (fun i -> acc.(i) <- i + 1);
      Alcotest.(check bool) "every index ran exactly once" true
        (acc = Array.init n (fun i -> i + 1)))

let test_pool_batched_inline_paths () =
  (* jobs=1: the batched loop must never submit a region *)
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      let hits = ref 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:100
        (fun _ -> incr hits);
      Alcotest.(check int) "jobs=1 covers" 100 !hits;
      Alcotest.(check int) "jobs=1: zero dispatches" 0
        (Domain_pool.dispatches pool));
  (* short range on a parallel pool: below the min_chunk floor the call
     is a plain loop — the dispatch counter must not move *)
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let hits = ref 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:64 ~start:0 ~stop:64
        (fun _ -> incr hits);
      Alcotest.(check int) "short range covers" 64 !hits;
      Alcotest.(check int) "short range: zero dispatches" 0
        (Domain_pool.dispatches pool);
      (* nested inside a region body: inline, no second dispatch *)
      let inner = Atomic.make 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:4
        (fun _ ->
          Domain_pool.parallel_for_batched pool ~min_chunk:1 ~start:0 ~stop:50
            (fun _ -> Atomic.incr inner));
      Alcotest.(check int) "nested covers" 200 (Atomic.get inner);
      Alcotest.(check int) "nested: only the outer region dispatched" 1
        (Domain_pool.dispatches pool))

let test_pool_batched_dispatches_when_worth_it () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let hits = Atomic.make 0 in
      Domain_pool.parallel_for_batched pool ~min_chunk:8 ~start:0 ~stop:1024
        (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "covers" 1024 (Atomic.get hits);
      Alcotest.(check bool) "large range dispatches to workers" true
        (Domain_pool.dispatches pool > 0);
      Alcotest.check_raises "min_chunk validated"
        (Invalid_argument
           "Domain_pool.parallel_for_batched: min_chunk must be >= 1")
        (fun () ->
          Domain_pool.parallel_for_batched pool ~min_chunk:0 ~start:0 ~stop:4
            (fun _ -> ())))

let test_pool_host_cores_and_effective_jobs () =
  Alcotest.(check bool) "host_cores >= 1" true (Domain_pool.host_cores () >= 1);
  Alcotest.(check int) "effective_jobs floor" 1 (Domain_pool.effective_jobs 1);
  let cap = Domain.recommended_domain_count () in
  Alcotest.(check bool) "effective_jobs clamps to host concurrency" true
    (Domain_pool.effective_jobs 64 <= cap);
  Alcotest.(check bool) "host_cores covers the clamp" true
    (Domain_pool.host_cores () >= cap)

let test_pool_resolve_jobs () =
  let saved = Domain_pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.set_default_jobs saved)
    (fun () ->
      Domain_pool.set_default_jobs 3;
      Alcotest.(check int) "0 inherits default" 3 (Domain_pool.resolve_jobs 0);
      Alcotest.(check int) "explicit wins" 2 (Domain_pool.resolve_jobs 2);
      Alcotest.(check bool) "recommended >= 1" true
        (Domain_pool.recommended_jobs () >= 1))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "int_in singleton" `Quick test_prng_int_in_singleton;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float varies" `Quick test_prng_float_varies;
          Alcotest.test_case "log_int_in bounds" `Quick test_prng_log_int_in_bounds;
          Alcotest.test_case "log_int_in spreads" `Quick test_prng_log_int_in_spreads;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "choice/shuffle" `Quick test_prng_choice_shuffle;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "geomean equal" `Quick test_stats_geomean_simple;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max/sum" `Quick test_stats_minmax_sum;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "exact interpolation" `Quick test_piecewise_exact_interp;
          Alcotest.test_case "extrapolation" `Quick test_piecewise_extrapolation;
          Alcotest.test_case "fit collapses linear" `Quick test_piecewise_fit_linear_collapses;
          Alcotest.test_case "fit error bound" `Quick test_piecewise_fit_error_bound;
          Alcotest.test_case "duplicate abscissa" `Quick test_piecewise_duplicate_abscissa;
          Alcotest.test_case "degenerate inputs rejected" `Quick
            test_piecewise_degenerate_inputs;
          Alcotest.test_case "non-monotone input sorted" `Quick
            test_piecewise_non_monotone_input;
          Alcotest.test_case "far extrapolation" `Quick
            test_piecewise_far_extrapolation;
          qtest prop_piecewise_interpolates;
        ] );
      ( "kendall_tau",
        [
          Alcotest.test_case "perfect agreement" `Quick test_kendall_tau_perfect;
          Alcotest.test_case "partial agreement" `Quick test_kendall_tau_partial;
          Alcotest.test_case "ties and degenerate input" `Quick
            test_kendall_tau_ties;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted pops" `Quick test_heap_sorted_pops;
          Alcotest.test_case "peek/size" `Quick test_heap_peek;
          qtest prop_heap_matches_sort;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_row_width_mismatch;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick
            test_pool_parallel_for_covers;
          Alcotest.test_case "exception propagates, pool drains" `Quick
            test_pool_exception_propagates_and_drains;
          Alcotest.test_case "nested submit runs inline" `Quick
            test_pool_nested_submit_runs_inline;
          Alcotest.test_case "jobs=1 and shutdown idempotent" `Quick
            test_pool_jobs1_and_shutdown_idempotent;
          Alcotest.test_case "shutdown pool runs inline" `Quick
            test_pool_shutdown_runs_inline;
          Alcotest.test_case "resolve_jobs" `Quick test_pool_resolve_jobs;
          Alcotest.test_case "batched covers range" `Quick
            test_pool_batched_covers;
          Alcotest.test_case "batched inline paths dispatch nothing" `Quick
            test_pool_batched_inline_paths;
          Alcotest.test_case "batched dispatches when worth it" `Quick
            test_pool_batched_dispatches_when_worth_it;
          Alcotest.test_case "host_cores and effective_jobs" `Quick
            test_pool_host_cores_and_effective_jobs;
        ] );
    ]
