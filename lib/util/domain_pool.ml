(* A deque holds a contiguous run of chunk indices. The owner takes from
   the head ([lo]), thieves take from the tail ([hi]); both ends move
   under the deque's mutex — contention is one uncontended lock per
   chunk, negligible against any useful chunk body. *)
type deque = {
  dlock : Mutex.t;
  mutable lo : int;
  mutable hi : int;  (** exclusive *)
}

type region = {
  body : int -> unit;  (** chunk index -> work *)
  deques : deque array;
  cancelled : bool Atomic.t;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  n_jobs : int;
  mutable domains : unit Domain.t array;
  lock : Mutex.t;
  cv : Condition.t;
  mutable job : region option;
  mutable epoch : int;  (** bumped once per submitted region *)
  mutable active : int;  (** spawned workers still inside the region *)
  mutable stopped : bool;
  mutable dispatched : int;
      (** regions handed to worker domains (the parallel path); inline
          sequential executions are not counted *)
}

(* True while this domain is executing a region body: nested submissions
   (and submissions from worker domains generally) run inline. *)
let in_region_key = Domain.DLS.new_key (fun () -> ref false)

let try_take d ~steal =
  Mutex.lock d.dlock;
  let r =
    if d.lo < d.hi then
      if steal then begin
        d.hi <- d.hi - 1;
        Some d.hi
      end
      else begin
        let i = d.lo in
        d.lo <- i + 1;
        Some i
      end
    else None
  in
  Mutex.unlock d.dlock;
  r

let exec r i =
  if not (Atomic.get r.cancelled) then
    try r.body i
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set r.error None (Some (e, bt)));
      Atomic.set r.cancelled true

let participate r wid =
  let n = Array.length r.deques in
  let flag = Domain.DLS.get in_region_key in
  let was = !flag in
  flag := true;
  let rec own () =
    match try_take r.deques.(wid) ~steal:false with
    | Some i ->
      exec r i;
      own ()
    | None -> steal (wid + 1) 0
  and steal j tried =
    if tried < n - 1 then
      let j = if j >= n then j - n else j in
      if j = wid then steal (j + 1) tried
      else
        match try_take r.deques.(j) ~steal:true with
        | Some i ->
          exec r i;
          own ()
        | None -> steal (j + 1) (tried + 1)
  in
  own ();
  flag := was

let worker t wid =
  let rec loop my_epoch =
    Mutex.lock t.lock;
    while (not t.stopped) && t.epoch = my_epoch do
      Condition.wait t.cv t.lock
    done;
    if t.stopped then Mutex.unlock t.lock
    else begin
      let e = t.epoch in
      let r = match t.job with Some r -> r | None -> assert false in
      Mutex.unlock t.lock;
      participate r wid;
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.cv;
      Mutex.unlock t.lock;
      loop e
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      domains = [||];
      lock = Mutex.create ();
      cv = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stopped = false;
      dispatched = 0;
    }
  in
  t.domains <- Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let dispatches t =
  Mutex.lock t.lock;
  let d = t.dispatched in
  Mutex.unlock t.lock;
  d

let shutdown t =
  Mutex.lock t.lock;
  let doms = t.domains in
  t.stopped <- true;
  t.domains <- [||];
  Condition.broadcast t.cv;
  Mutex.unlock t.lock;
  Array.iter Domain.join doms

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [body] over chunk indices [0, n_chunks). Sequential whenever the
   pool cannot safely go parallel: a nested submission, a busy pool (two
   non-worker domains racing for it) or shutdown. The sequential path
   executes chunks in order and lets exceptions propagate directly —
   bit-identical to what a deterministic caller reduction observes from
   the parallel path. *)
let run_region t ~n_chunks body =
  if n_chunks > 0 then
    if !(Domain.DLS.get in_region_key) then
      for i = 0 to n_chunks - 1 do
        body i
      done
    else begin
      Mutex.lock t.lock;
      if t.job <> None || t.stopped then begin
        Mutex.unlock t.lock;
        for i = 0 to n_chunks - 1 do
          body i
        done
      end
      else begin
        let w = t.n_jobs in
        let deques =
          Array.init w (fun i ->
              {
                dlock = Mutex.create ();
                lo = i * n_chunks / w;
                hi = (i + 1) * n_chunks / w;
              })
        in
        let r =
          { body; deques; cancelled = Atomic.make false; error = Atomic.make None }
        in
        t.job <- Some r;
        t.epoch <- t.epoch + 1;
        t.active <- w - 1;
        t.dispatched <- t.dispatched + 1;
        Condition.broadcast t.cv;
        Mutex.unlock t.lock;
        participate r 0;
        Mutex.lock t.lock;
        while t.active > 0 do
          Condition.wait t.cv t.lock
        done;
        t.job <- None;
        Mutex.unlock t.lock;
        match Atomic.get r.error with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      end
    end

let ceil_div a b = (a + b - 1) / b

(* Chunks carry at least [min_chunk] consecutive indices, and otherwise
   split the range ~4 ways per worker so idle workers have something to
   steal. A range that fits in one chunk, or a one-worker pool, runs
   inline without submitting a region. *)
let parallel_for_batched t ?(min_chunk = 1) ~start ~stop f =
  if min_chunk < 1 then
    invalid_arg "Domain_pool.parallel_for_batched: min_chunk must be >= 1";
  let n = stop - start in
  if n > 0 then
    if n <= min_chunk || t.n_jobs = 1 then
      for i = start to stop - 1 do
        f i
      done
    else
      let chunk = max min_chunk (ceil_div n (4 * t.n_jobs)) in
      run_region t ~n_chunks:(ceil_div n chunk) (fun c ->
          let lo = start + (c * chunk) in
          let hi = min stop (lo + chunk) in
          for i = lo to hi - 1 do
            f i
          done)

(* --- process-wide default and shared pool --- *)

let default = Atomic.make 1

let default_jobs () = Atomic.get default

let resolve_jobs j = if j <= 0 then default_jobs () else j

let recommended_jobs ?(cap = 8) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

(* Physical cores available to this process. [recommended_domain_count]
   already folds in affinity masks and cgroup quotas; the /proc probe is
   a cross-check for containers where the runtime under-reports. *)
let host_cores () =
  let proc_cpus =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> 0
    | ic ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line >= 9 && String.sub line 0 9 = "processor" then
             incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
  in
  max 1 (max proc_cpus (Domain.recommended_domain_count ()))

(* Workers that can actually run concurrently for a requested job count:
   spawning more domains than cores makes a search *slower* (the extra
   domains time-slice the same core and pay dispatch overhead for it),
   so batch-search entry points clamp to this. [0] means "inherit the
   process default" like [resolve_jobs]. *)
let effective_jobs j =
  max 1 (min (resolve_jobs j) (Domain.recommended_domain_count ()))

let global_lock = Mutex.create ()

let global_pool : t option ref = ref None

let set_default_jobs n =
  let n = max 1 n in
  Mutex.lock global_lock;
  Atomic.set default n;
  let stale =
    match !global_pool with
    | Some p when p.n_jobs <> n ->
      global_pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock global_lock;
  Option.iter shutdown stale

let global ?(jobs = 0) () =
  let want = max (resolve_jobs jobs) 1 in
  Mutex.lock global_lock;
  let pool, stale =
    match !global_pool with
    | Some p when p.n_jobs >= want -> (p, None)
    | old ->
      let p = create ~jobs:(max want (default_jobs ())) in
      global_pool := Some p;
      (p, old)
  in
  Mutex.unlock global_lock;
  Option.iter shutdown stale;
  pool
