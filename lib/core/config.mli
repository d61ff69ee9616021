(** MikPoly configuration: the paper's hyper-parameters plus search-budget
    knobs for the online stage. *)

type ranker = {
  rk_id : string;  (** artifact / feature-schema identity, for telemetry *)
  rk_score :
    m:int -> n:int -> k:int -> um:int -> un:int -> uk:int ->
    wave_capacity:int -> n_tasks:int -> pipe:float -> float;
      (** predicted cost of a single-kernel candidate (lower visits
          earlier). Receives the problem shape, the micro-kernel
          geometry, its wave capacity, the candidate's pipelined-task
          count and its pipeline term, i.e. exactly the quantities the
          Eq.-2 product is built from — so an offline-trained model can
          reproduce the same features online. Must be pure and
          deterministic. *)
}
(** A learned candidate-ordering oracle ({!Mikpoly_rank} builds these
    from on-disk model artifacts). It only {e orders} the candidate
    stream; Eq. 2 remains the sole pruning and tie-break authority. *)

type t = {
  n_gen : int;  (** tile candidates per dimension — 32 in the paper *)
  n_syn : int;  (** synthetic workload exponent range — 12 *)
  n_mik : int;  (** retained micro-kernels — 40 *)
  n_pred : int;  (** max pipelined-task length profiled — 5120 *)
  dtype : Mikpoly_tensor.Dtype.t;
  path : Mikpoly_accel.Hardware.compute_path;
  codegen_eff : float;  (** quality of the auto-generated kernels *)
  patterns : Pattern.t list;  (** polymerization patterns to explore *)
  primary_kernels : int;
      (** kernels tried as a candidate program's primary micro-kernel *)
  secondary_kernels : int;
      (** kernels tried as the pinned second kernel of two-cut patterns *)
  max_cuts : int;  (** wave-aligned cut candidates per kernel and axis *)
  rank_style : Mikpoly_autosched.Autotuner.rank_style;
      (** offline ranking rule (ablation knob; default Champion) *)
  search_launch_term : bool;
      (** charge per-region launch overhead in the search score (ablation
          knob; default true) *)
  cut_style : [ `Wave_aligned | `Remainder_only ];
      (** split-point heuristic: wave-boundary candidates vs only the
          maximal full-tile cut (ablation knob; default wave-aligned) *)
  search_jobs : int;
      (** worker domains for batched online search
          ({!Polymerize.search_batch}) and offline tuning:
          [0] (default) inherits {!Mikpoly_util.Domain_pool.default_jobs}
          (the CLI's [--jobs] flag), [1] forces sequential, [n > 1]
          uses [n] domains. Never affects which program is chosen —
          each search is sequential and deterministic — so it is
          excluded from {!cache_key}. *)
  search_deadline_ms : float;
      (** online-search deadline in milliseconds of {e modeled} search
          time ([0.] = unbounded, the default). The deadline is
          converted into a per-unit candidate budget derived from
          {!Polymerize.modeled_search_seconds}'s constants, so the
          best-so-far cut fires at the identical candidate for every
          job count — cancellation never breaks the determinism
          contract. Like [search_jobs] it never affects which program a
          completed (un-truncated) search chooses, and a truncated
          search is still deterministic, so it is excluded from
          {!cache_key}. *)
  analytic_prune : bool;
      (** apply {!Strategy_space}'s analytic pre-pruning (kernel
          dominance, Pattern-I bound seeding, pipeline-depth floors)
          before scoring candidates (default [true]; ablation /
          soundness-oracle knob). Only active under the plain
          [Model Full] scorer, never changes the chosen program, and is
          excluded from {!cache_key}. *)
  ranker : ranker option;
      (** learned candidate-ordering oracle (default [None]). When set,
          {!Polymerize} visits enumeration units and Pattern-I kernels
          best-predicted-first, so a [search_deadline_ms] cut keeps the
          most promising candidates. Ordering never changes which
          program an un-truncated search chooses (the winner is the
          global [(cost, tie_key)] minimum and every prune is strict
          against an achievable bound), so like the other runtime knobs
          it is excluded from {!cache_key}. *)
}

val default : Mikpoly_accel.Hardware.t -> t
(** The paper's configuration for the platform: (32, 12, 40, 5120); fp16
    matrix path; patterns I–II on the GPU, I–IX on the NPU. *)

val with_path : Mikpoly_accel.Hardware.compute_path -> t -> t
(** Switch compute path (e.g. CUDA cores for the DietCode comparison,
    which also lowers codegen quality to auto-scheduler grade). *)

val cache_key : t -> string
(** Stable identity of the offline stage's product, for kernel-set
    caching. *)
