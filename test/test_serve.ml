(* Unit tests for the serving runtime: bounded LRU shape cache,
   bucketing arithmetic, admission policies, and the multi-replica
   scheduler's determinism and accounting. *)

open Mikpoly_serve

let req ?(ttft = 0.25) ?(e2e = 1.0) ~id ~arrival ?(prompt = 8) ?(output = 4) () =
  {
    Request.id;
    arrival;
    prompt_len = prompt;
    output_len = output;
    slo = { Request.ttft; e2e };
  }

(* --- Shape_cache --- *)

let test_lru_eviction_order () =
  let c = Shape_cache.create ~capacity:3 in
  Shape_cache.add c (1, 1, 1) "a";
  Shape_cache.add c (2, 2, 2) "b";
  Shape_cache.add c (3, 3, 3) "c";
  Alcotest.(check (list (triple int int int)))
    "insertion order is LRU order"
    [ (1, 1, 1); (2, 2, 2); (3, 3, 3) ]
    (Shape_cache.lru_order c);
  (* Touching the oldest entry makes it the youngest. *)
  Alcotest.(check (option string)) "hit" (Some "a") (Shape_cache.find c (1, 1, 1));
  Alcotest.(check (list (triple int int int)))
    "recency updated"
    [ (2, 2, 2); (3, 3, 3); (1, 1, 1) ]
    (Shape_cache.lru_order c);
  (* A fourth insert evicts the now-least-recently-used (2,2,2). *)
  Shape_cache.add c (4, 4, 4) "d";
  Alcotest.(check (list (triple int int int)))
    "LRU victim evicted"
    [ (3, 3, 3); (1, 1, 1); (4, 4, 4) ]
    (Shape_cache.lru_order c);
  Alcotest.(check (option string)) "victim gone" None (Shape_cache.find c (2, 2, 2))

let test_cache_stats_counters () =
  let c = Shape_cache.create ~capacity:2 in
  ignore (Shape_cache.find c (1, 1, 1));
  Shape_cache.add c (1, 1, 1) ();
  ignore (Shape_cache.find c (1, 1, 1));
  Shape_cache.add c (2, 2, 2) ();
  Shape_cache.add c (3, 3, 3) ();
  let s = Shape_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Shape_cache.hits;
  Alcotest.(check int) "misses" 1 s.Shape_cache.misses;
  Alcotest.(check int) "insertions" 3 s.Shape_cache.insertions;
  Alcotest.(check int) "evictions" 1 s.Shape_cache.evictions;
  Alcotest.(check int) "size" 2 s.Shape_cache.size;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Shape_cache.hit_rate s);
  let t = Shape_cache.total [ s; s ] in
  Alcotest.(check int) "total sums hits" 2 t.Shape_cache.hits;
  Alcotest.(check int) "total sums size" 4 t.Shape_cache.size

let test_cache_capacity_zero () =
  let c = Shape_cache.create ~capacity:0 in
  Shape_cache.add c (1, 1, 1) ();
  Alcotest.(check int) "retains nothing" 0 (Shape_cache.size c);
  Alcotest.(check (option unit)) "always misses" None (Shape_cache.find c (1, 1, 1));
  let s = Shape_cache.stats c in
  Alcotest.(check int) "miss counted" 1 s.Shape_cache.misses;
  Alcotest.(check int) "no eviction churn" 0 s.Shape_cache.evictions

let test_find_n_rejects_nonpositive () =
  let c = Shape_cache.create ~capacity:2 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Shape_cache.find_n: n < 1")
    (fun () -> ignore (Shape_cache.find_n c (1, 1, 1) 0))

(* [find_n] against its definition: [n] back-to-back [find]s that stop
   at the first miss, and the serving loops' miss-then-add ladder
   against the per-launch loop it replaces. Two caches built alike run
   the same op sequence, one through [find_n], one through [find]; after
   every op the returns, stats, recency order and rejections must agree.
   Weighted caches with uneven per-key weights make the ladder's inserts
   get refused, so a ladder can miss on every launch. *)
type cache_op =
  | Find of int
  | Find_n of int * int
  | Add of int
  | Ladder of int * int

let cache_op_print = function
  | Find k -> Printf.sprintf "find %d" k
  | Find_n (k, n) -> Printf.sprintf "find_n %d %d" k n
  | Add k -> Printf.sprintf "add %d" k
  | Ladder (k, n) -> Printf.sprintf "ladder %d %d" k n

let cache_op_gen =
  QCheck.Gen.(
    map3
      (fun op k n ->
        match op with
        | 0 -> Find k
        | 1 -> Find_n (k, n)
        | 2 -> Add k
        | _ -> Ladder (k, n))
      (int_bound 3) (int_bound 3) (int_range 1 6))

let prop_find_n_matches_find =
  QCheck.Test.make ~count:500
    ~name:"find_n = back-to-back finds, ladder = per-launch loop"
    QCheck.(
      quad (int_range 0 4) bool
        (array_of_size (Gen.return 4) (int_bound 3))
        (make
           ~print:(fun l -> String.concat "; " (List.map cache_op_print l))
           Gen.(list_size (int_bound 40) cache_op_gen)))
    (fun (capacity, weighted, weights, ops) ->
      let key k = (k, k, k) in
      let make () =
        if weighted then
          Shape_cache.create_weighted ~capacity ~weight:(fun (k, _, _) ->
              float_of_int weights.(k))
        else Shape_cache.create ~capacity
      in
      let fast = make () and slow = make () in
      let rec finds k n =
        let r = Shape_cache.find slow (key k) in
        if r <> None && n > 1 then finds k (n - 1) else r
      in
      let same () =
        Shape_cache.stats fast = Shape_cache.stats slow
        && Shape_cache.lru_order fast = Shape_cache.lru_order slow
        && Shape_cache.rejections fast = Shape_cache.rejections slow
      in
      List.for_all
        (fun (i, op) ->
          let agree =
            match op with
            | Find k -> Shape_cache.find fast (key k) = finds k 1
            | Find_n (k, n) -> Shape_cache.find_n fast (key k) n = finds k n
            | Add k ->
              Shape_cache.add fast (key k) i;
              Shape_cache.add slow (key k) i;
              true
            | Ladder (k, n) ->
              let compiles = ref 0 in
              let rec go n =
                if n > 0 then
                  match Shape_cache.find_n fast (key k) n with
                  | Some _ -> ()
                  | None ->
                    incr compiles;
                    Shape_cache.add fast (key k) i;
                    go (n - 1)
              in
              go n;
              let slow_compiles = ref 0 in
              for _ = 1 to n do
                match Shape_cache.find slow (key k) with
                | Some _ -> ()
                | None ->
                  incr slow_compiles;
                  Shape_cache.add slow (key k) i
              done;
              !compiles = !slow_compiles
          in
          agree && same ())
        (List.mapi (fun i op -> (i, op)) ops))

(* --- Bucketing --- *)

let test_bucketing_policies () =
  Alcotest.(check int) "exact" 13 (Bucketing.bucket Bucketing.Exact 13);
  Alcotest.(check int) "aligned up" 16 (Bucketing.bucket (Bucketing.Aligned 8) 13);
  Alcotest.(check int) "aligned fixpoint" 16 (Bucketing.bucket (Bucketing.Aligned 8) 16);
  Alcotest.(check int) "pow2" 16 (Bucketing.bucket Bucketing.Pow2 9);
  Alcotest.(check int) "pow2 fixpoint" 8 (Bucketing.bucket Bucketing.Pow2 8);
  Alcotest.(check int) "fixed" 256 (Bucketing.bucket (Bucketing.Fixed 256) 13);
  Alcotest.(check int) "fixed multiple" 512 (Bucketing.bucket (Bucketing.Fixed 256) 300);
  Alcotest.(check (float 1e-9)) "padded ratio" (16. /. 13.)
    (Bucketing.padded_ratio (Bucketing.Aligned 8) 13);
  Alcotest.(check (float 1e-9)) "exact ratio is 1" 1.
    (Bucketing.padded_ratio Bucketing.Exact 13)

let test_bucketing_of_string_roundtrip () =
  List.iter
    (fun p ->
      match Bucketing.of_string (Bucketing.name p) with
      | Ok q -> Alcotest.(check string) "roundtrip" (Bucketing.name p) (Bucketing.name q)
      | Error e -> Alcotest.fail e)
    [ Bucketing.Exact; Bucketing.Aligned 8; Bucketing.Pow2; Bucketing.Fixed 256 ];
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Bucketing.of_string "nonsense"))

(* --- Batcher --- *)

let test_greedy_admission () =
  let waiting = [ req ~id:2 ~arrival:0.2 (); req ~id:1 ~arrival:0.1 () ] in
  let d =
    Batcher.admit (Batcher.Greedy { max_batch = 2 }) ~now:1.0 ~in_flight:1 ~waiting
  in
  Alcotest.(check (list int)) "oldest first, capped by in-flight" [ 1 ]
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.admitted);
  Alcotest.(check (list int)) "rest deferred" [ 2 ]
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.deferred);
  Alcotest.(check (list int)) "greedy never drops" []
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.dropped)

let test_timeout_admission () =
  let p = Batcher.Timeout { max_batch = 4; window = 0.1 } in
  let waiting = [ req ~id:1 ~arrival:0.0 (); req ~id:2 ~arrival:0.35 () ] in
  (* Before the window elapses nothing is admitted... *)
  let early = Batcher.admit p ~now:0.05 ~in_flight:0 ~waiting in
  Alcotest.(check int) "held back" 0 (List.length early.Batcher.admitted);
  (* ...at exactly the instant next_eligible reports, the oldest is. *)
  let t =
    match Batcher.next_eligible p ~waiting with
    | Some t -> t
    | None -> Alcotest.fail "queue is non-empty"
  in
  let d = Batcher.admit p ~now:t ~in_flight:0 ~waiting in
  Alcotest.(check (list int)) "aged request admitted at next_eligible" [ 1 ]
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.admitted);
  (* A queue that alone fills the batch is released immediately. *)
  let full =
    List.init 4 (fun i -> req ~id:i ~arrival:(float_of_int i *. 1e-3) ())
  in
  let d = Batcher.admit p ~now:0.004 ~in_flight:0 ~waiting:full in
  Alcotest.(check int) "full batch skips the window" 4
    (List.length d.Batcher.admitted)

let test_slo_aware_admission () =
  let p = Batcher.Slo_aware { max_batch = 2 } in
  let expired = req ~id:1 ~arrival:0.0 ~e2e:0.5 () in
  let tight = req ~id:2 ~arrival:0.8 ~e2e:0.4 () in
  let loose = req ~id:3 ~arrival:0.7 ~e2e:2.0 () in
  let d = Batcher.admit p ~now:1.0 ~in_flight:0 ~waiting:[ loose; tight; expired ] in
  Alcotest.(check (list int)) "expired request shed" [ 1 ]
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.dropped);
  Alcotest.(check (list int)) "earliest deadline first" [ 2; 3 ]
    (List.map (fun (r : Request.t) -> r.id) d.Batcher.admitted)

let test_next_eligible () =
  Alcotest.(check (option (float 1e-9))) "empty queue" None
    (Batcher.next_eligible (Batcher.Greedy { max_batch = 4 }) ~waiting:[]);
  let waiting = [ req ~id:1 ~arrival:0.3 (); req ~id:2 ~arrival:0.6 () ] in
  Alcotest.(check (option (float 1e-9))) "greedy: earliest arrival" (Some 0.3)
    (Batcher.next_eligible (Batcher.Greedy { max_batch = 4 }) ~waiting);
  Alcotest.(check (option (float 1e-9))) "timeout: arrival + window" (Some 0.4)
    (Batcher.next_eligible (Batcher.Timeout { max_batch = 4; window = 0.1 }) ~waiting)

let test_next_eligible_edges () =
  (* Empty queue: None for every policy — the only case with no event. *)
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9)))
        (Batcher.name p ^ ": empty queue") None
        (Batcher.next_eligible p ~waiting:[]))
    [
      Batcher.Greedy { max_batch = 4 };
      Batcher.Timeout { max_batch = 4; window = 0.1 };
      Batcher.Slo_aware { max_batch = 4 };
    ];
  (* Timeout window expiring exactly at [now]: the instant next_eligible
     reports must admit — [now >= arrival +. window] is deliberately
     non-strict, else the event loop would livelock at that instant. *)
  let p = Batcher.Timeout { max_batch = 4; window = 0.1 } in
  let waiting = [ req ~id:1 ~arrival:0.3 () ] in
  let at = Option.get (Batcher.next_eligible p ~waiting) in
  Alcotest.(check (float 1e-9)) "reported instant" 0.4 at;
  let d = Batcher.admit p ~now:at ~in_flight:0 ~waiting in
  Alcotest.(check (list int)) "admits at exactly the reported instant" [ 1 ]
    (List.map (fun (r : Request.t) -> r.Request.id) d.Batcher.admitted);
  (* Slo_aware with every waiting request past its deadline: the queue
     still has a pending event (the shed), so next_eligible must report
     the drop instant, not None — and admitting there drops them all. *)
  let p = Batcher.Slo_aware { max_batch = 4 } in
  let expired =
    [ req ~id:1 ~arrival:0.1 ~e2e:0.5 (); req ~id:2 ~arrival:0.2 ~e2e:0.5 () ]
  in
  Alcotest.(check (option (float 1e-9)))
    "all-expired queue still reports an instant" (Some 0.1)
    (Batcher.next_eligible p ~waiting:expired);
  let d = Batcher.admit p ~now:5.0 ~in_flight:0 ~waiting:expired in
  Alcotest.(check int) "nothing admitted" 0 (List.length d.Batcher.admitted);
  Alcotest.(check int) "nothing deferred" 0 (List.length d.Batcher.deferred);
  Alcotest.(check (list int)) "both shed" [ 1; 2 ]
    (List.sort compare (List.map (fun (r : Request.t) -> r.Request.id) d.Batcher.dropped))

(* --- Scheduler + Metrics --- *)

let trace = Request.poisson ~seed:42 ~rate:40. ~count:24 ~max_prompt:32 ~max_output:6 ()

let config =
  {
    Scheduler.replicas = 2;
    batcher = Batcher.Greedy { max_batch = 8 };
    bucketing = Bucketing.Aligned 4;
    cache_capacity = 16;
  }

let test_scheduler_deterministic () =
  let engine = Scheduler.synthetic_engine () in
  let m1 = Metrics.of_outcome (Scheduler.run config engine trace) in
  let m2 = Metrics.of_outcome (Scheduler.run config engine trace) in
  Alcotest.(check bool) "identical metrics on identical input" true (m1 = m2);
  Alcotest.(check int) "all requests complete" 24 m1.Metrics.completed

let test_scheduler_conservation () =
  let engine = Scheduler.synthetic_engine () in
  (* A burst far beyond one replica's capacity with tight deadlines
     forces the SLO-aware batcher to shed the back of the queue. *)
  let tight =
    List.init 20 (fun i ->
        req ~id:i ~arrival:(float_of_int i *. 1e-4) ~e2e:10e-3 ~output:4 ())
  in
  let o =
    Scheduler.run
      {
        config with
        replicas = 1;
        batcher = Batcher.Slo_aware { max_batch = 2 };
      }
      engine tight
  in
  Alcotest.(check int) "completed + dropped = requests" (List.length tight)
    (List.length o.Scheduler.completed + List.length o.Scheduler.dropped);
  Alcotest.(check bool) "some requests shed" true (o.Scheduler.dropped <> []);
  List.iter
    (fun (c : Scheduler.completed) ->
      Alcotest.(check bool) "first token after arrival" true
        (c.first_token > c.request.Request.arrival);
      Alcotest.(check bool) "finish after first token" true
        (c.finish >= c.first_token))
    o.Scheduler.completed

let test_scheduler_padding_accounting () =
  let engine = Scheduler.synthetic_engine () in
  let o = Scheduler.run { config with bucketing = Bucketing.Fixed 64 } engine trace in
  Alcotest.(check bool) "padded >= actual" true
    (o.Scheduler.padded_tokens >= o.Scheduler.actual_tokens);
  Alcotest.(check int) "fixed bucket: padded is a multiple of 64" 0
    (o.Scheduler.padded_tokens mod 64);
  let exact = Scheduler.run config engine trace in
  Alcotest.(check bool) "aligned pads less than fixed-64" true
    (exact.Scheduler.padded_tokens <= o.Scheduler.padded_tokens)

let test_cache_beats_no_cache () =
  (* A compile stall comparable to the step time makes caching decisive. *)
  let engine = Scheduler.synthetic_engine ~compile:1e-3 () in
  let cached = Metrics.of_outcome (Scheduler.run config engine trace) in
  let uncached =
    Metrics.of_outcome
      (Scheduler.run { config with cache_capacity = 0 } engine trace)
  in
  Alcotest.(check bool) "cached p95 strictly lower" true
    (cached.Metrics.latency_p95 < uncached.Metrics.latency_p95);
  Alcotest.(check bool) "cached stalls less" true
    (cached.Metrics.compile_stall_seconds < uncached.Metrics.compile_stall_seconds);
  Alcotest.(check (float 1e-9)) "no-cache never hits" 0. uncached.Metrics.cache_hit_rate;
  Alcotest.(check bool) "cached mostly hits" true (cached.Metrics.cache_hit_rate > 0.9)

let test_empty_trace () =
  let engine = Scheduler.synthetic_engine () in
  let m = Metrics.of_outcome (Scheduler.run config engine []) in
  Alcotest.(check int) "no requests" 0 m.Metrics.requests;
  Alcotest.(check (float 1e-9)) "zero throughput" 0. m.Metrics.throughput_rps

let test_adapt_hook_noop () =
  (* A hook that never reports work is indistinguishable from no hook. *)
  let engine = Scheduler.synthetic_engine () in
  let plain = Metrics.of_outcome (Scheduler.run config engine trace) in
  let hooked =
    Metrics.of_outcome (Scheduler.run ~adapt:(fun () -> 0.) config engine trace)
  in
  Alcotest.(check bool) "identical metrics" true (plain = hooked);
  Alcotest.(check (float 1e-12)) "no adapt stall" 0.
    hooked.Metrics.adapt_stall_seconds

let test_adapt_hook_charges_stall () =
  (* A one-shot adaptation stall is charged on the stepping replica's
     event clock: it is paid exactly once, extends the makespan and is
     visible to later steps (the polling is per step, so only the first
     poll sees the pending work). *)
  let engine = Scheduler.synthetic_engine () in
  (* Larger than the trace's arrival span so the stall cannot be hidden
     inside idle time spent waiting for the next Poisson arrival. *)
  let stall = 10. in
  let pending = ref stall in
  let adapt () =
    let s = !pending in
    pending := 0.;
    s
  in
  let plain = Scheduler.run config engine trace in
  let adapted = Scheduler.run ~adapt config engine trace in
  Alcotest.(check (float 1e-12)) "stall accounted once" stall
    adapted.Scheduler.adapt_stall_seconds;
  Alcotest.(check (float 1e-12)) "drained" 0. !pending;
  Alcotest.(check bool) "makespan extended" true
    (adapted.Scheduler.makespan >= stall
    && adapted.Scheduler.makespan >= plain.Scheduler.makespan);
  Alcotest.(check int) "work conserved" (List.length plain.Scheduler.completed)
    (List.length adapted.Scheduler.completed)

let test_poisson_trace_properties () =
  Alcotest.(check int) "count respected" 24 (List.length trace);
  let sorted = List.stable_sort Request.compare_arrival trace in
  Alcotest.(check bool) "sorted by arrival" true (trace = sorted);
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "positive lengths" true
        (r.prompt_len >= 1 && r.output_len >= 1 && r.prompt_len <= 32
        && r.output_len <= 6))
    trace;
  let again = Request.poisson ~seed:42 ~rate:40. ~count:24 ~max_prompt:32 ~max_output:6 () in
  Alcotest.(check bool) "same seed, same trace" true (trace = again);
  let bursty =
    Request.bursty ~seed:7 ~base_rate:5. ~burst_rate:100. ~period:1. ~duty:0.25
      ~count:40 ~max_prompt:16 ~max_output:4 ()
  in
  Alcotest.(check int) "bursty count" 40 (List.length bursty)

let test_heavy_tail_traces () =
  let gen dist =
    Request.poisson ~length_dist:dist ~seed:11 ~rate:20. ~count:200
      ~max_prompt:4096 ~max_output:64 ()
  in
  let pareto = gen (Request.Pareto { alpha = 1.1 }) in
  let lognormal = gen (Request.Log_normal { sigma = 2.0 }) in
  (* Determinism: same seed and distribution, bit-identical trace. *)
  Alcotest.(check bool) "pareto reproducible" true
    (pareto = gen (Request.Pareto { alpha = 1.1 }));
  Alcotest.(check bool) "lognormal reproducible" true
    (lognormal = gen (Request.Log_normal { sigma = 2.0 }));
  Alcotest.(check bool) "distinct tails diverge" true (pareto <> lognormal);
  (* Lengths stay clamped to [1, max] under any tail. *)
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "clamped" true
        (r.prompt_len >= 1 && r.prompt_len <= 4096 && r.output_len >= 1
        && r.output_len <= 64))
    (pareto @ lognormal);
  (* Heavy tail: mass concentrates near 1 yet huge prompts appear — the
     defining shape log-uniform lacks. Both facts are deterministic
     under the fixed seed. *)
  let prompts = List.map (fun (r : Request.t) -> r.prompt_len) pareto in
  let small = List.length (List.filter (fun p -> p <= 8) prompts) in
  Alcotest.(check bool) "pareto mass near x_min" true
    (small > List.length prompts / 2);
  Alcotest.(check bool) "pareto tail reaches large prompts" true
    (List.exists (fun p -> p >= 256) prompts);
  Alcotest.(check string) "dist names" "log-uniform/pareto-1.1/lognormal-2"
    (String.concat "/"
       (List.map Request.dist_name
          [ Request.Log_uniform; Request.Pareto { alpha = 1.1 };
            Request.Log_normal { sigma = 2.0 } ]));
  Alcotest.check_raises "pareto alpha validated"
    (Invalid_argument "Request: Pareto alpha must be positive") (fun () ->
      ignore (gen (Request.Pareto { alpha = 0. })));
  Alcotest.check_raises "lognormal sigma validated"
    (Invalid_argument "Request: Log_normal sigma must be positive") (fun () ->
      ignore (gen (Request.Log_normal { sigma = -1. })))

let () =
  Alcotest.run "serve"
    [
      ( "shape_cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "stats counters" `Quick test_cache_stats_counters;
          Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
          Alcotest.test_case "find_n rejects n < 1" `Quick
            test_find_n_rejects_nonpositive;
          QCheck_alcotest.to_alcotest prop_find_n_matches_find;
        ] );
      ( "bucketing",
        [
          Alcotest.test_case "policies" `Quick test_bucketing_policies;
          Alcotest.test_case "of_string roundtrip" `Quick
            test_bucketing_of_string_roundtrip;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "greedy" `Quick test_greedy_admission;
          Alcotest.test_case "timeout" `Quick test_timeout_admission;
          Alcotest.test_case "slo-aware" `Quick test_slo_aware_admission;
          Alcotest.test_case "next_eligible" `Quick test_next_eligible;
          Alcotest.test_case "next_eligible edge cases" `Quick
            test_next_eligible_edges;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic" `Quick test_scheduler_deterministic;
          Alcotest.test_case "conservation" `Quick test_scheduler_conservation;
          Alcotest.test_case "padding accounting" `Quick
            test_scheduler_padding_accounting;
          Alcotest.test_case "cache beats no-cache" `Quick test_cache_beats_no_cache;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "adapt hook no-op" `Quick test_adapt_hook_noop;
          Alcotest.test_case "adapt hook charges stall" `Quick
            test_adapt_hook_charges_stall;
          Alcotest.test_case "poisson trace" `Quick test_poisson_trace_properties;
          Alcotest.test_case "heavy-tail traces" `Quick test_heavy_tail_traces;
        ] );
    ]
