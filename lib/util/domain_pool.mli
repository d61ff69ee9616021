(** Fixed-size OCaml 5 domain pool with work-stealing deques.

    One pool drives the harness's one parallel region: whole-shape
    searches in [Polymerize.search_batch] (which the compiler's warm
    path and the serving precompile phase go through), plus the offline
    autotuner's per-kernel scoring. A pool of [jobs] workers comprises
    the submitting domain plus [jobs - 1] spawned domains; a parallel
    region partitions its index range into chunks, deals each worker a
    contiguous run of chunks, and lets idle workers steal from the tail
    of their peers' deques, so irregular per-index cost (the common
    case in candidate search) balances automatically.

    Degradation is always graceful and always sequential-equivalent:
    a [jobs = 1] pool, a submission from inside a worker (nested
    parallelism) and a submission while the pool is already busy all
    run the body inline on the calling domain. Bodies therefore must
    not rely on actually running concurrently.

    Exceptions raised by a body cancel the remaining chunks of the
    region; the first exception (by wall-clock, not index order) is
    re-raised on the submitting domain with its backtrace. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] new domains). Raises
    [Invalid_argument] when [jobs < 1]. A [jobs = 1] pool spawns
    nothing and runs every region inline. *)

val dispatches : t -> int
(** Number of regions this pool has actually handed to worker domains.
    Regions that ran inline — [jobs = 1] pools, nested submissions,
    busy-pool and post-shutdown fallbacks — are not counted, so a test
    can pin "this path never paid a pool dispatch" exactly. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Submitting to a shut-down
    pool runs sequentially. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — even on exceptions. *)

val parallel_for_batched :
  t -> ?min_chunk:int -> start:int -> stop:int -> (int -> unit) -> unit
(** [parallel_for_batched t ~start ~stop f] runs [f i] for every
    [start <= i < stop], in parallel across the pool. The range is cut
    into stealable chunks of consecutive indices: at least [min_chunk]
    (default 1) each, and otherwise the range split ~4 ways per worker.
    Within a chunk, indices run in order; across chunks, order is
    unspecified. A range of [<= min_chunk] indices (or a [jobs = 1]
    pool) runs inline on the caller with zero pool dispatches. Raise
    [min_chunk] when the per-index body is cheap enough that fine
    chunks would lose to dispatch overhead, as the polymerization batch
    search and the autotuner do. Raises [Invalid_argument] when
    [min_chunk < 1]. *)

(** {1 Process-wide default} *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] capped at [cap] (default 8). *)

val host_cores : unit -> int
(** Detected physical core count available to this process: the larger
    of a [/proc/cpuinfo] probe and [Domain.recommended_domain_count].
    Recorded in bench artifacts so speedup numbers are interpretable. *)

val effective_jobs : int -> int
(** [effective_jobs j] resolves [j] like {!resolve_jobs} and then clamps
    it to [Domain.recommended_domain_count ()]: the number of workers
    that can make concurrent progress. Batch-search entry points use
    this so that requesting [jobs = 8] on a 2-core host dispatches 2
    workers instead of 8 domains time-slicing 2 cores. *)

val default_jobs : unit -> int
(** The process-wide default job count consulted by layers whose
    configuration says "inherit" ([search_jobs = 0]). Initially 1, so
    nothing in the system goes parallel unless asked to. *)

val set_default_jobs : int -> unit
(** Set the process default (clamped to [>= 1]). If the shared global
    pool exists at a different size it is shut down and lazily
    recreated on next use. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [default_jobs ()] when [j <= 0], else [j] —
    the decoding rule for "0 = inherit" job knobs. *)

val global : ?jobs:int -> unit -> t
(** The shared lazily-created pool. Created at
    [max jobs (default_jobs ())] workers; if a later call requests
    more workers than the pool has, it is replaced by a larger one
    (callers must not hold references across such growth). *)
