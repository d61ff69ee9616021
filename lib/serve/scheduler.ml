module Tm = Mikpoly_telemetry
module Dp = Mikpoly_util.Domain_pool
module Plan = Mikpoly_fault.Plan
module Retry = Mikpoly_fault.Retry

(* Always-on serving metrics plus (when tracing) per-phase spans on the
   virtual "serve" track — one lane per replica, timestamps in simulated
   seconds. *)
let serve_track = "serve"

let m_steps = Tm.Metrics.counter "serve.steps"

let m_completed = Tm.Metrics.counter "serve.completed"

let m_dropped = Tm.Metrics.counter "serve.dropped"

let m_ttft =
  Tm.Metrics.histogram "serve.ttft_seconds"
    ~buckets:[| 0.05; 0.1; 0.25; 0.5; 1.; 2.; 5. |]

let m_stall =
  Tm.Metrics.histogram "serve.compile_stall_seconds"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 |]

let m_adapt_stall =
  Tm.Metrics.histogram "serve.adapt_stall_seconds"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 |]

(* Fault-plane observability: injected faults and their resilience
   outcomes, always-on so a chaos run is auditable from any dump. *)
let m_step_faults = Tm.Metrics.counter "serve.faults.steps"

let m_stragglers = Tm.Metrics.counter "serve.faults.stragglers"

let m_crashes = Tm.Metrics.counter "serve.faults.crashes"

let m_retries = Tm.Metrics.counter "serve.retries"

let m_rejected = Tm.Metrics.counter "serve.rejected"

let m_timed_out = Tm.Metrics.counter "serve.timed_out"

let m_failed = Tm.Metrics.counter "serve.failed"

type engine = {
  engine_name : string;
  step_seconds : tokens:int -> kv_tokens:int -> float;
  step_shapes : tokens:int -> ((int * int * int) * int) list;
  compile_seconds : int * int * int -> float;
  precompile_batch : jobs:int -> (int * int * int) list -> int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* Engine memos live on the calling domain: the precompile phase fills
   the compiler through [Compiler.warm], whose worker domains never see
   these tables, and the memos themselves are filled afterwards. *)
let memo_find_or tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace tbl key v;
    v

let mikpoly_engine compiler =
  let hw = Mikpoly_core.Compiler.hardware compiler in
  let dtype = (Mikpoly_core.Compiler.config compiler).Mikpoly_core.Config.dtype in
  (* [operator_seconds] re-runs the device simulator on every call, and a
     40-layer graph launches each family shape dozens of times — memoize
     per shape for the engine's lifetime. *)
  let gemm_memo = Hashtbl.create 1024 in
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else
      Ok
        (memo_find_or gemm_memo (m, n, k) (fun () ->
             let op = Mikpoly_ir.Operator.gemm ~dtype ~m ~n ~k () in
             Mikpoly_core.Compiler.operator_seconds compiler op))
  in
  (* The KV length only drives the bandwidth-bound attention scan;
     bucketing it to a power of two keeps the step memo small. *)
  let step_memo = Hashtbl.create 256 in
  let step_seconds ~tokens ~kv_tokens =
    if tokens < 1 then invalid_arg "Scheduler.step_seconds: tokens must be >= 1";
    let kv_len = next_pow2 (max 1 (kv_tokens / max 1 tokens)) in
    memo_find_or step_memo (tokens, kv_len) (fun () ->
        let graph = Mikpoly_nn.Llama.decode_graph ~batch:tokens ~kv_len in
        let r = Mikpoly_nn.Inference.run hw graph ~gemm () in
        r.Mikpoly_nn.Inference.seconds)
  in
  let step_shapes ~tokens =
    List.map
      (fun (g : Mikpoly_nn.Llama.layer_gemm) ->
        (Mikpoly_nn.Llama.gemm_shape g ~tokens, g.repeat * Mikpoly_nn.Llama.layers))
      Mikpoly_nn.Llama.layer_gemms
  in
  let compile_memo = Hashtbl.create 256 in
  let compile_seconds (m, n, k) =
    memo_find_or compile_memo (m, n, k) (fun () ->
        let op = Mikpoly_ir.Operator.gemm ~dtype ~m ~n ~k () in
        let c = Mikpoly_core.Compiler.compile compiler op in
        Mikpoly_core.Polymerize.modeled_search_seconds c)
  in
  {
    engine_name = "mikpoly@" ^ hw.Mikpoly_accel.Hardware.name;
    step_seconds;
    step_shapes;
    compile_seconds;
    precompile_batch =
      (fun ~jobs shapes -> Mikpoly_core.Compiler.warm ~jobs compiler shapes);
  }

let synthetic_engine ?(base = 2e-3) ?(per_token = 1e-4) ?(compile = 2e-4)
    ?(shape_families = 2) () =
  if base < 0. || per_token < 0. || compile < 0. || shape_families < 1 then
    invalid_arg "Scheduler.synthetic_engine";
  {
    engine_name = "synthetic";
    step_seconds =
      (fun ~tokens ~kv_tokens ->
        base
        +. (per_token *. float_of_int tokens)
        +. (1e-8 *. float_of_int kv_tokens));
    step_shapes =
      (fun ~tokens ->
        List.init shape_families (fun i -> ((256 * (i + 1), tokens, 512), 4)));
    compile_seconds = (fun _ -> compile);
    precompile_batch = (fun ~jobs:_ _ -> 0);
  }

let graph_engine ~name ~bind compiler =
  let backend = Mikpoly_graph.Executor.mikpoly_backend compiler in
  (* one whole-graph pass per step: bind the model at the step's token
     count, price it once, and reuse the result for the engine's
     lifetime (the executor re-walks the DAG per call) *)
  let step_memo = Hashtbl.create 64 in
  let costs tokens =
    memo_find_or step_memo tokens (fun () ->
        let bound = bind ~tokens in
        let run = Mikpoly_graph.Executor.execute backend bound in
        ( run.Mikpoly_graph.Executor.r_exec_seconds,
          Mikpoly_graph.Infer.shape_launches bound ))
  in
  let compile_memo = Hashtbl.create 256 in
  let compile_seconds (m, n, k) =
    memo_find_or compile_memo (m, n, k) (fun () ->
        let op = Mikpoly_ir.Operator.gemm ~m ~n ~k () in
        Mikpoly_core.Polymerize.modeled_search_seconds
          (Mikpoly_core.Compiler.compile compiler op))
  in
  {
    engine_name = name;
    step_seconds =
      (fun ~tokens ~kv_tokens:_ ->
        if tokens < 1 then
          invalid_arg "Scheduler.step_seconds: tokens must be >= 1";
        fst (costs tokens));
    step_shapes = (fun ~tokens -> snd (costs tokens));
    compile_seconds;
    precompile_batch =
      (fun ~jobs shapes -> Mikpoly_core.Compiler.warm ~jobs compiler shapes);
  }

type config = {
  replicas : int;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
}

type completed = {
  request : Request.t;
  first_token : float;
  finish : float;
  replica : int;
}

type status =
  | Completed
  | Rejected of string
  | Timed_out
  | Failed of string

type resilience = {
  retry : Retry.policy;
  attempt_timeout : float;
  max_queue : int;
  shed : [ `Reject_new | `Drop_oldest ];
}

let default_resilience =
  {
    retry = Retry.default;
    attempt_timeout = infinity;
    max_queue = 0;
    shed = `Reject_new;
  }

type outcome = {
  completed : completed list;
  dropped : Request.t list;
  rejected : (Request.t * string) list;
  timed_out : Request.t list;
  failed : (Request.t * string) list;
  steps : int;
  makespan : float;
  compile_stall_seconds : float;
  adapt_stall_seconds : float;
  actual_tokens : int;
  padded_tokens : int;
  cache : Shape_cache.stats list;
  queue_depth_sum : int;
  queue_samples : int;
  retries : int;
  crashes : int;
  injected_faults : int;
}

let statuses (o : outcome) =
  List.map (fun (c : completed) -> (c.request, Completed)) o.completed
  @ List.map (fun q -> (q, Rejected "batcher shed")) o.dropped
  @ List.map (fun (q, why) -> (q, Rejected why)) o.rejected
  @ List.map (fun q -> (q, Timed_out)) o.timed_out
  @ List.map (fun (q, why) -> (q, Failed why)) o.failed

type active_req = {
  areq : Request.t;
  mutable remaining : int;
  mutable kv : int;
  mutable prefill : int;  (** prompt tokens not yet consumed *)
  mutable first_token : float;
}

type replica_state = {
  idx : int;
  mutable clock : float;  (** time the replica is next free *)
  mutable waiting : Request.t list;  (** arrival order *)
  mutable act : active_req list;
  mutable rcache : unit Shape_cache.t;  (** replaced on crash *)
  mutable step_no : int;  (** per-replica step index: the fault-draw key *)
  mutable down_until : float;  (** crash restart: no progress before this *)
  mutable fail_streak : int;  (** consecutive failed attempts, for backoff *)
}

module Shape_set = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

(* Warm the engine's compile path before the event loop: the bucketed
   token counts the batcher can admit map to a bounded set of GEMM
   shapes, which go through the engine's [precompile_batch] — one
   coarse batched search with per-shape pool units, instead of the
   per-shape pool dispatches this harness used before. The sequential
   [compile_seconds] sweep afterwards fills the engine's stall memo from
   the now-hot compiler cache. Purely a wall-clock optimization of the
   harness itself — replica shape caches are untouched, so the
   simulated outcome (compile stalls included) is bit-identical to a
   cold sequential run. Prefill steps can exceed the batch cap in
   tokens; their shapes just compile lazily as before. *)
let precompile ~jobs config engine =
  let module IS = Set.Make (Int) in
  let buckets = ref IS.empty in
  for t = 1 to Batcher.max_batch config.batcher do
    buckets := IS.add (Bucketing.bucket config.bucketing t) !buckets
  done;
  let shapes = ref Shape_set.empty in
  IS.iter
    (fun tokens ->
      List.iter
        (fun (shape, _) -> shapes := Shape_set.add shape !shapes)
        (engine.step_shapes ~tokens))
    !buckets;
  let arr = Array.of_list (Shape_set.elements !shapes) in
  if Array.length arr > 0 then
    Tm.Tracer.with_span "serve.precompile"
      ~attrs:
        [
          ("shapes", string_of_int (Array.length arr));
          ("jobs", string_of_int jobs);
        ]
      (fun () ->
        ignore (engine.precompile_batch ~jobs (Array.to_list arr));
        Array.iter (fun s -> ignore (engine.compile_seconds s)) arr)

let run ?(jobs = 0) ?(adapt = fun () -> 0.) ?(faults = Plan.none) ?resilience
    config engine requests =
  if config.replicas < 1 then invalid_arg "Scheduler.run: replicas must be >= 1";
  if config.cache_capacity < 0 then
    invalid_arg "Scheduler.run: negative cache capacity";
  (match resilience with
  | Some r ->
    Retry.validate r.retry;
    if r.attempt_timeout <= 0. then
      invalid_arg "Scheduler.run: attempt_timeout must be positive"
  | None -> ());
  let jobs = Dp.resolve_jobs jobs in
  if jobs > 1 then precompile ~jobs config engine;
  let tracing = Tm.Tracer.enabled () in
  if tracing then Tm.Tracer.set_units ~track:serve_track ~per_second:1.0;
  let reps =
    Array.init config.replicas (fun idx ->
        {
          idx;
          clock = 0.;
          waiting = [];
          act = [];
          rcache = Shape_cache.create ~capacity:config.cache_capacity;
          step_no = 0;
          down_until = 0.;
          fail_streak = 0;
        })
  in
  let pending = ref (List.stable_sort Request.compare_arrival requests) in
  let completed = ref [] in
  let dropped = ref [] in
  let rejected = ref [] in
  let timed_out = ref [] in
  let failed = ref [] in
  let steps = ref 0 in
  let stall_total = ref 0. in
  let adapt_total = ref 0. in
  let actual_tokens = ref 0 in
  let padded_tokens = ref 0 in
  let qsum = ref 0 in
  let qsamples = ref 0 in
  let makespan = ref 0. in
  let retries = ref 0 in
  let crash_count = ref 0 in
  let injected = ref 0 in
  (* Per-request failed-attempt count (by request id), surviving crash
     re-queues; reset by any successful step the request is part of. *)
  let attempts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let attempts_of id = Option.value (Hashtbl.find_opt attempts id) ~default:0 in
  (* Caches retired by crashes, so the outcome still accounts for their
     hits and misses. *)
  let retired_caches = ref [] in
  let crashes_left = ref faults.Plan.crashes in
  let reject req why =
    rejected := (req, why) :: !rejected;
    Tm.Metrics.incr m_rejected
  in
  let fail req why =
    failed := (req, why) :: !failed;
    Tm.Metrics.incr m_failed
  in
  let time_out req =
    timed_out := req :: !timed_out;
    Tm.Metrics.incr m_timed_out
  in
  let outstanding r = List.length r.waiting + List.length r.act in
  let assign req =
    (* Least outstanding work wins; ties go to the lowest index so the
       routing is deterministic. *)
    let best = ref reps.(0) in
    Array.iter (fun r -> if outstanding r < outstanding !best then best := r) reps;
    let r = !best in
    (* Load-shedding admission: a bounded queue refuses (or evicts) work
       instead of letting latency grow without bound under overload. *)
    match resilience with
    | Some res when res.max_queue > 0 && List.length r.waiting >= res.max_queue
      -> (
      match res.shed with
      | `Reject_new -> reject req "queue full"
      | `Drop_oldest -> (
        match r.waiting with
        | oldest :: rest ->
          reject oldest "queue full (dropped oldest)";
          r.waiting <- rest @ [ req ]
        | [] -> r.waiting <- [ req ]))
    | _ -> r.waiting <- r.waiting @ [ req ]
  in
  (* Time at which a replica can next make progress, None if it is idle
     with an empty queue; a crashed replica makes no progress before its
     restart completes. *)
  let next_time r =
    let base =
      if r.act <> [] then Some r.clock
      else
        match Batcher.next_eligible config.batcher ~waiting:r.waiting with
        | None -> None
        | Some t -> Some (max r.clock t)
    in
    match base with
    | Some t when t < r.down_until -> Some r.down_until
    | other -> other
  in
  let do_crash i ~now =
    let r = reps.(i) in
    incr crash_count;
    incr injected;
    Tm.Metrics.incr m_crashes;
    (* In-flight work is lost (tokens and KV state restart from scratch).
       With resilience the requests re-queue at the head of the replica's
       queue, each charged one attempt; without it they are failed —
       loudly, never silently. The waiting queue is a front-end buffer
       and survives the crash in both arms. *)
    (match resilience with
    | None -> List.iter (fun a -> fail a.areq "replica crash") r.act
    | Some res ->
      let back, lost =
        List.partition
          (fun a ->
            let n = attempts_of a.areq.Request.id + 1 in
            Hashtbl.replace attempts a.areq.Request.id n;
            n < res.retry.max_attempts)
          r.act
      in
      retries := !retries + List.length back;
      Tm.Metrics.add m_retries (List.length back);
      List.iter (fun a -> fail a.areq "replica crash") lost;
      r.waiting <- List.map (fun a -> a.areq) back @ r.waiting);
    r.act <- [];
    (* The shape cache dies with the process: programs must be
       re-polymerized after restart. *)
    retired_caches := Shape_cache.stats r.rcache :: !retired_caches;
    r.rcache <- Shape_cache.create ~capacity:config.cache_capacity;
    r.fail_streak <- 0;
    r.down_until <- now +. faults.Plan.restart_delay;
    r.clock <- Float.max r.clock r.down_until;
    makespan := Float.max !makespan r.down_until;
    if tracing then
      Tm.Tracer.emit ~track:serve_track ~lane:r.idx ~name:"crash" ~start:now
        ~finish:r.down_until ()
  in
  let step r ~now =
    let d =
      Batcher.admit config.batcher ~now ~in_flight:(List.length r.act)
        ~waiting:r.waiting
    in
    r.waiting <- d.Batcher.deferred;
    dropped := List.rev_append d.Batcher.dropped !dropped;
    if d.Batcher.dropped <> [] then
      Tm.Metrics.add m_dropped (List.length d.Batcher.dropped);
    (* Queue-phase attribution: one span per admitted request covering
       arrival to admission. *)
    if tracing then
      List.iter
        (fun (q : Request.t) ->
          Tm.Tracer.emit ~track:serve_track ~lane:r.idx
            ~attrs:[ ("request", string_of_int q.id) ]
            ~name:"queue"
            ~start:(Float.min q.arrival now)
            ~finish:now ())
        d.Batcher.admitted;
    r.act <-
      r.act
      @ List.map
          (fun (q : Request.t) ->
            {
              areq = q;
              remaining = q.output_len;
              kv = 0;
              prefill = q.prompt_len;
              first_token = nan;
            })
          d.Batcher.admitted;
    if r.act = [] then
      (* Normally SLO shedding just emptied the queue. If a policy
         admitted nothing from a non-empty queue on an idle replica, a
         stuck clock would livelock the event loop — nudge it forward so
         the simulation always terminates. *)
      r.clock <-
        (if d.Batcher.dropped <> [] then now else now +. 1e-6)
    else begin
      qsamples := !qsamples + 1;
      qsum :=
        !qsum + Array.fold_left (fun acc rr -> acc + List.length rr.waiting) 0 reps;
      let tokens =
        List.fold_left
          (fun acc a -> acc + if a.prefill > 0 then a.prefill else 1)
          0 r.act
      in
      let kv_tokens = List.fold_left (fun acc a -> acc + a.kv) 0 r.act in
      let btokens = Bucketing.bucket config.bucketing tokens in
      actual_tokens := !actual_tokens + tokens;
      padded_tokens := !padded_tokens + btokens;
      (* Every micro-kernel launch consults the program cache; only
         misses pay the polymerization stall. The cache is probed once
         per shape: a hit credits all remaining launches at once, a miss
         compiles one launch and probes again for the rest. At capacity
         0 nothing is retained, so all launches of a step recompile. *)
      let stall = ref 0. in
      List.iter
        (fun (shape, launches) ->
          let rec go n =
            if n > 0 then
              match Shape_cache.find_n r.rcache shape n with
              | Some () -> ()
              | None ->
                stall := !stall +. engine.compile_seconds shape;
                Shape_cache.add r.rcache shape ();
                go (n - 1)
          in
          go launches)
        (engine.step_shapes ~tokens:btokens);
      (* The per-replica step index keys every fault draw: it advances on
         each attempt, so a retried step re-draws — the failure is
         transient — while the sequence stays independent of anything
         outside this replica. *)
      let step_idx = r.step_no in
      r.step_no <- r.step_no + 1;
      let slowdown = Plan.step_slowdown faults ~replica:r.idx ~step:step_idx in
      if slowdown > 1. then begin
        incr injected;
        Tm.Metrics.incr m_stragglers
      end;
      let dt =
        (engine.step_seconds ~tokens:btokens ~kv_tokens +. !stall) *. slowdown
      in
      stall_total := !stall_total +. !stall;
      Tm.Metrics.incr m_steps;
      if !stall > 0. then Tm.Metrics.observe m_stall !stall;
      let step_fault = Plan.step_fails faults ~replica:r.idx ~step:step_idx in
      if step_fault then begin
        incr injected;
        Tm.Metrics.incr m_step_faults
      end;
      let attempt_cut =
        match resilience with
        | Some res when res.attempt_timeout < dt -> Some res.attempt_timeout
        | _ -> None
      in
      if step_fault || attempt_cut <> None then begin
        (* A failed attempt: its device time elapses on the event clock
           (up to the attempt timeout) but the step's work is lost. *)
        let elapsed =
          match attempt_cut with Some c -> Float.min c dt | None -> dt
        in
        let fin = now +. elapsed in
        if tracing then
          Tm.Tracer.emit ~track:serve_track ~lane:r.idx
            ~attrs:[ ("batch", string_of_int (List.length r.act)) ]
            ~name:(if step_fault then "step_fault" else "step_timeout")
            ~start:now ~finish:fin ();
        (match resilience with
        | None ->
          (* No retry machinery: every request in the failed step is a
             loud failure — never a silent loss. *)
          List.iter (fun a -> fail a.areq "step fault") r.act;
          r.act <- [];
          r.clock <- fin
        | Some res ->
          let keep, lost =
            List.partition
              (fun a ->
                let n = attempts_of a.areq.Request.id + 1 in
                Hashtbl.replace attempts a.areq.Request.id n;
                n < res.retry.max_attempts)
              r.act
          in
          retries := !retries + List.length keep;
          Tm.Metrics.add m_retries (List.length keep);
          List.iter
            (fun a ->
              if step_fault then fail a.areq "retries exhausted"
              else time_out a.areq)
            lost;
          r.act <- keep;
          (* Exponential backoff with deterministic seed-keyed jitter
             before the retry attempt, charged on the event clock. *)
          r.fail_streak <- r.fail_streak + 1;
          let delay =
            Retry.delay_after res.retry ~seed:faults.Plan.seed
              ~attempt:r.fail_streak
          in
          r.clock <- fin +. delay);
        makespan := Float.max !makespan r.clock;
        incr steps
      end
      else begin
        let fin = now +. dt in
        if tracing then begin
          Tm.Tracer.emit ~track:serve_track ~lane:r.idx
            ~attrs:
              [
                ("batch", string_of_int (List.length r.act));
                ("tokens", string_of_int btokens);
                ("kv_tokens", string_of_int kv_tokens);
              ]
            ~name:"step" ~start:now ~finish:fin ();
          if !stall > 0. then
            Tm.Tracer.emit ~track:serve_track ~lane:r.idx ~name:"compile_stall"
              ~start:now
              ~finish:(now +. !stall)
              ()
        end;
        r.fail_streak <- 0;
        r.act <-
          List.filter
            (fun a ->
              if attempts_of a.areq.Request.id > 0 then
                Hashtbl.replace attempts a.areq.Request.id 0;
              if a.prefill > 0 then begin
                a.kv <- a.prefill;
                a.prefill <- 0;
                true
              end
              else begin
                a.kv <- a.kv + 1;
                a.remaining <- a.remaining - 1;
                if Float.is_nan a.first_token then a.first_token <- fin;
                if a.remaining = 0 then begin
                  completed :=
                    {
                      request = a.areq;
                      first_token = a.first_token;
                      finish = fin;
                      replica = r.idx;
                    }
                    :: !completed;
                  let ttft = a.first_token -. a.areq.Request.arrival in
                  Tm.Metrics.incr m_completed;
                  Tm.Metrics.observe m_ttft ttft;
                  (* Whole-request span: arrival to last token, TTFT in the
                     attributes so Perfetto shows the attribution inline. *)
                  if tracing then
                    Tm.Tracer.emit ~track:serve_track ~lane:r.idx
                      ~attrs:
                        [
                          ("request", string_of_int a.areq.Request.id);
                          ("ttft_ms", Printf.sprintf "%.2f" (1e3 *. ttft));
                        ]
                      ~name:"request" ~start:a.areq.Request.arrival ~finish:fin
                      ();
                  false
                end
                else true
              end)
            r.act;
        r.clock <- fin;
        makespan := max !makespan fin;
        incr steps
      end;
      (* Adaptation work triggered during this step — drift-reaction
         recompiles reported by an online adapter — stalls this replica,
         charged on the event clock like any compile stall. *)
      let astall = adapt () in
      if astall > 0. then begin
        adapt_total := !adapt_total +. astall;
        let stall_start = r.clock in
        r.clock <- r.clock +. astall;
        makespan := max !makespan r.clock;
        Tm.Metrics.observe m_adapt_stall astall;
        if tracing then
          Tm.Tracer.emit ~track:serve_track ~lane:r.idx ~name:"adapt_stall"
            ~start:stall_start ~finish:r.clock ()
      end
    end
  in
  let rec loop () =
    let best = ref None in
    Array.iter
      (fun r ->
        match next_time r with
        | None -> ()
        | Some t -> (
          match !best with
          | Some (bt, _) when bt <= t -> ()
          | _ -> best := Some (t, r)))
      reps;
    (* Event priority at a tie: crash, then arrival, then step — fixed,
       so the interleaving is deterministic. *)
    let crash = match !crashes_left with [] -> None | c :: rest -> Some (c, rest) in
    let horizon =
      match (!best, crash) with
      | None, None -> None
      | Some (t, _), None -> Some t
      | None, Some ((t, _), _) -> Some t
      | Some (ts, _), Some ((tc, _), _) -> Some (Float.min ts tc)
    in
    match (horizon, !pending) with
    | None, [] -> ()
    | None, p :: rest ->
      pending := rest;
      assign p;
      loop ()
    | Some t, p :: rest when p.Request.arrival <= t ->
      pending := rest;
      assign p;
      loop ()
    | Some _, _ -> (
      match (!best, crash) with
      | Some (ts, r), Some ((tc, i), rest) ->
        if tc <= ts then begin
          crashes_left := rest;
          do_crash i ~now:tc
        end
        else step r ~now:ts;
        loop ()
      | Some (ts, r), None ->
        step r ~now:ts;
        loop ()
      | None, Some ((tc, i), rest) ->
        crashes_left := rest;
        do_crash i ~now:tc;
        loop ()
      | None, None -> assert false)
  in
  loop ();
  {
    completed = List.rev !completed;
    dropped = List.rev !dropped;
    rejected = List.rev !rejected;
    timed_out = List.rev !timed_out;
    failed = List.rev !failed;
    steps = !steps;
    makespan = !makespan;
    compile_stall_seconds = !stall_total;
    adapt_stall_seconds = !adapt_total;
    actual_tokens = !actual_tokens;
    padded_tokens = !padded_tokens;
    cache =
      Array.to_list (Array.map (fun r -> Shape_cache.stats r.rcache) reps)
      @ List.rev !retired_caches;
    queue_depth_sum = !qsum;
    queue_samples = !qsamples;
    retries = !retries;
    crashes = !crash_count;
    injected_faults = !injected;
  }
