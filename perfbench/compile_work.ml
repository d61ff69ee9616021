(* The compile layer (lib/core over lib/accel) measured from outside:
   cache-miss [Compiler.compile] calls on fresh compilers, batched
   [Compiler.warm], the Eq.-2 region scorer, the simulator, and the
   checks on every emitted program. *)

module Compiler = Mikpoly_core.Compiler
module Kernel_desc = Mikpoly_accel.Kernel_desc
module Cost_model = Mikpoly_core.Cost_model
module Kernel_set = Mikpoly_core.Kernel_set
module Polymerize = Mikpoly_core.Polymerize
module Operator = Mikpoly_ir.Operator
module Program = Mikpoly_ir.Program
module Region = Mikpoly_ir.Region
module Hardware = Mikpoly_accel.Hardware
module Tensor = Mikpoly_tensor.Tensor
module Prng = Mikpoly_util.Prng
module Stats = Mikpoly_util.Stats

type shape = int * int * int

let platforms = [| Hardware.a100; Hardware.ascend910 |]

let platform_names = [| "gpu"; "npu" |]

let k_compile = Array.map (fun p -> Probe.kind ("core.compile." ^ p)) platform_names

let k_warm = Probe.kind "core.warm"

let operator c (m, n, k) =
  Operator.gemm ~dtype:(Compiler.config c).Mikpoly_core.Config.dtype ~m ~n ~k ()

(* --- Inputs ---------------------------------------------------------- *)

(* Distinct im2col-lowered GEMM shapes of the Table-4 conv suite. *)
let conv_shapes =
  lazy
    (let seen = Hashtbl.create 2048 in
     List.iter
       (fun c -> Hashtbl.replace seen (Mikpoly_tensor.Conv_spec.gemm_shape c) ())
       (Mikpoly_workloads.Conv_suite.cases ());
     let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
     Array.sort compare a;
     a)

(* [count] stratified draws from [lo, hi], log-uniform within each of
   [count] equal slices of the log range, in seeded order: every seed
   covers the whole range evenly (a Latin-hypercube axis). *)
let strata rng ~count (lo, hi) =
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  let a =
    Array.init count (fun i ->
        let u = (float_of_int i +. Prng.float rng 1.) /. float_of_int count in
        max lo (min hi (int_of_float (Float.round (exp (llo +. (u *. (lhi -. llo))))))))
  in
  Prng.shuffle rng a;
  a

(* [count] distinct GEMM shapes in seeded order: a third from the conv
   suite (one per equal slice of the suite sorted by volume), the rest a
   Latin hypercube over the log Table-3 (M, N, K) ranges. Stratifying
   keeps seeds from differing in how many extreme shapes they draw. *)
let stream ~seed ~count =
  let rng = Prng.create seed in
  let seen = Hashtbl.create count in
  let out = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out
    end
  in
  let convs = Array.copy (Lazy.force conv_shapes) in
  let volume (m, n, k) = m * n * k in
  Array.stable_sort (fun a b -> compare (volume a) (volume b)) convs;
  let n_conv = count / 3 in
  let slice = Array.length convs / n_conv in
  for i = 0 to n_conv - 1 do
    add convs.((i * slice) + Prng.int rng slice)
  done;
  let n_gemm = count - Hashtbl.length seen in
  let m_r, n_r, k_r = Mikpoly_workloads.Suite.table3_ranges in
  let ms = strata rng ~count:n_gemm m_r in
  let ns = strata rng ~count:n_gemm n_r in
  let ks = strata rng ~count:n_gemm k_r in
  Array.iteri (fun i m -> add (m, ns.(i), ks.(i))) ms;
  (* Rounding may collide a few draws: top up log-uniformly. *)
  let draw (lo, hi) = Prng.log_int_in rng lo hi in
  while Hashtbl.length seen < count do
    let m = draw m_r in
    let n = draw n_r in
    let k = draw k_r in
    add (m, n, k)
  done;
  let a = Array.of_list !out in
  Prng.shuffle rng a;
  a

(* --- Measurement ----------------------------------------------------- *)

(* Make the library's implicit fan-outs (the offline autotuning, the
   fleet's warm refresh) run on the calling domain, and shut down the
   shared worker pool if one is up. Every measurement but the batched
   warm runs in a single-domain process: with an idle pool domain alive,
   each minor collection is a stop-the-world handshake with a sleeping
   domain, which doubles the tail of a cache-miss compile (p99 168 µs vs
   72 µs on a 2-vCPU Xeon VM) and makes it drift with the host's wake-up
   latency. *)
let single_domain () = Mikpoly_util.Domain_pool.set_default_jobs 1

(* Deterministic per-pass tallies: they must repeat exactly. *)
type tally = {
  searches : int;
  candidates : int;
  pruned_bound : int;
  pruned_analytic : int;
  minor_words : float;
}

let zero = { searches = 0; candidates = 0; pruned_bound = 0; pruned_analytic = 0; minor_words = 0. }

let add_tally t (c : Polymerize.compiled) words =
  {
    searches = t.searches + 1;
    candidates = t.candidates + c.Polymerize.candidates;
    pruned_bound = t.pruned_bound + c.Polymerize.pruned;
    pruned_analytic = t.pruned_analytic + c.Polymerize.pruned_analytic;
    minor_words = t.minor_words +. words;
  }

(* One cold pass: a fresh compiler per platform, every shape compiled
   once (each call a cache miss). Returns per-platform compiled programs
   and host seconds per call ({!Probe.scaled}), and the pass tally. *)
let cold_pass shapes =
  let tally = ref zero in
  let per_platform =
    Array.mapi
      (fun p hw ->
        let c = Compiler.create hw in
        let ops = Array.map (operator c) shapes in
        let secs = Array.make (Array.length ops) 0. in
        let progs =
          Array.mapi
            (fun i op ->
              let t0 = Probe.now_ns () in
              let r, words =
                Probe.span k_compile.(p) (fun () ->
                    let w0 = Gc.minor_words () in
                    let r = Compiler.compile c op in
                    (r, Gc.minor_words () -. w0))
              in
              secs.(i) <- Probe.scaled (Probe.seconds_since t0);
              tally := add_tally !tally r words;
              r)
            ops
        in
        (c, progs, secs))
      platforms
  in
  (per_platform, !tally)

(* Warm every shape on fresh compilers with [jobs] domains; returns the
   warmed compilers and the host seconds the warm calls took
   ({!Probe.scaled}). The worker domains the warm spawned are shut down
   afterwards (see {!single_domain}). *)
let warm_pass ~jobs shapes =
  let list = Array.to_list shapes in
  let cs = Array.map (fun hw -> Compiler.create hw) platforms in
  let (), dt =
    Probe.timed (fun () ->
        Array.iter
          (fun c ->
            Probe.span k_warm (fun () ->
                let fresh = Compiler.warm ~jobs c list in
                if fresh <> Array.length shapes then
                  failwith "Compiler.warm compiled fewer shapes than requested"))
          cs)
  in
  single_domain ();
  (cs, Probe.scaled dt)

let program_bytes (c : Polymerize.compiled) =
  Marshal.to_string c.Polymerize.program [ Marshal.No_sharing ]

(* Programs from [Compiler.warm] must be byte-identical to the
   sequential cache-miss compiles. Returns the number of mismatches. *)
let identity_mismatches shapes per_platform warmed =
  let bad = ref 0 in
  Array.iteri
    (fun p (_, progs, _) ->
      let w = warmed.(p) in
      Array.iteri
        (fun i s ->
          let hit = Compiler.compile w (operator w s) in
          if program_bytes hit <> program_bytes progs.(i) then incr bad)
        shapes)
    per_platform;
  !bad

(* --- Numeric check ----------------------------------------------------- *)

(* The functional executor's cost grows with M·N·K: programs up to this
   volume are run whole. *)
let numeric_volume_cap = 1 lsl 25

let matrix rows cols = Tensor.create (Mikpoly_tensor.Shape.of_list [ rows; cols ])

(* The rows (or columns) of the output compared with the reference: the
   first and last of every region, so every region's edges are checked,
   plus [extra] seeded ones; every line when the extent is small. *)
let probe_lines rng ~extent ~extra edges =
  if extent <= 64 then Array.init extent Fun.id
  else
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map (fun (off, len) -> [ off; off + len - 1 ]) edges
         @ List.init extra (fun _ -> Prng.int rng extent)))

(* Run [prog] with the functional executor on seeded inputs and compare
   its output on the probe rows and columns with [Gemm_ref] on the
   matching slices of the inputs. *)
let numeric_ok rng (prog : Program.t) =
  let m, n, k = Operator.gemm_shape prog.Program.op in
  let a = matrix m k and b = matrix k n in
  Tensor.init_random rng a;
  Tensor.init_random rng b;
  let got = Mikpoly_ir.Executor.gemm prog a b in
  let edges f = List.map f prog.Program.regions in
  let rows =
    probe_lines rng ~extent:m ~extra:8 (edges (fun r -> (r.Region.row_off, r.Region.rows)))
  in
  let cols =
    probe_lines rng ~extent:n ~extra:8 (edges (fun r -> (r.Region.col_off, r.Region.cols)))
  in
  let nr = Array.length rows and nc = Array.length cols in
  let a_rows = matrix nr k and b_cols = matrix k nc and got_sub = matrix nr nc in
  Array.iteri
    (fun i r ->
      for x = 0 to k - 1 do
        Tensor.set2 a_rows i x (Tensor.get2 a r x)
      done)
    rows;
  Array.iteri
    (fun j c ->
      for x = 0 to k - 1 do
        Tensor.set2 b_cols x j (Tensor.get2 b x c)
      done)
    cols;
  Array.iteri
    (fun i r -> Array.iteri (fun j c -> Tensor.set2 got_sub i j (Tensor.get2 got r c)) cols)
    rows;
  Tensor.approx_equal ~tolerance:1e-3 got_sub (Mikpoly_tensor.Gemm_ref.gemm a_rows b_cols)

(* [prog] with its reduction K shortened to K' = L + (K mod L) when
   K > 2L, where L is the least common multiple of its kernels' uK:
   every region, offset, kernel and reduction tail of the emitted program
   is kept, while the executor's cost drops to M·N·K'. *)
let shortened (prog : Program.t) =
  let m, n, k = Operator.gemm_shape prog.Program.op in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let l =
    List.fold_left
      (fun l (r : Region.t) ->
        let u = r.Region.kernel.Kernel_desc.uk in
        l / gcd l u * u)
      1 prog.Program.regions
  in
  let k' = if k <= 2 * l then k else l + (k mod l) in
  let regions =
    List.map
      (fun (r : Region.t) ->
        Region.make ~row_off:r.row_off ~col_off:r.col_off ~rows:r.rows ~cols:r.cols ~k_len:k'
          ~kernel:r.kernel)
      prog.Program.regions
  in
  Program.make
    ~op:(Operator.gemm ~dtype:(Operator.dtype prog.Program.op) ~m ~n ~k:k' ())
    ~regions ~pattern_name:prog.Program.pattern_name

(* Multi-region programs checked per platform. *)
let multi_per_platform = 2

(* Numerically check a seeded subsample of each platform's programs: one
   from each volume quartile of the programs the executor runs whole,
   and [multi_per_platform] of the eight multi-region programs with the
   fewest outputs, on a shortened reduction ({!shortened}) since
   multi-region programs are large. Returns (checked, multi-region
   checked, failed). *)
let numeric_check ~seed per_platform =
  let rng = Prng.create (seed + 0x5EED) in
  let checked = ref 0 and multi = ref 0 and failed = ref 0 in
  let check prog =
    incr checked;
    if not (numeric_ok rng prog) then incr failed
  in
  let by f = List.stable_sort (fun a b -> compare (f a) (f b)) in
  Array.iter
    (fun (_, compiled, _) ->
      let progs =
        Array.to_list (Array.map (fun (c : Polymerize.compiled) -> c.program) compiled)
      in
      let shape (p : Program.t) = Operator.gemm_shape p.Program.op in
      let volume p =
        let m, n, k = shape p in
        m * n * k
      in
      let outputs p =
        let m, n, _ = shape p in
        m * n
      in
      let whole =
        Array.of_list (by volume (List.filter (fun p -> volume p <= numeric_volume_cap) progs))
      in
      let quartile = Array.length whole / 4 in
      if quartile > 0 then
        for q = 0 to 3 do
          check whole.((q * quartile) + Prng.int rng quartile)
        done;
      let multis =
        Array.of_list
          (List.filteri
             (fun i _ -> i < 8)
             (by outputs (List.filter (fun p -> Program.num_regions p > 1) progs)))
      in
      Prng.shuffle rng multis;
      Array.iteri
        (fun i p ->
          if i < multi_per_platform then begin
            incr multi;
            check (shortened p)
          end)
        multis)
    per_platform;
  (!checked, !multi, !failed)

(* Simulated device TFLOPS of every program, and host seconds per
   simulator call ({!Probe.scaled}). *)
let simulate_all shapes per_platform =
  let tflops = ref [] and secs = ref [] in
  Probe.settle ();
  Array.iter
    (fun (c, progs, _) ->
      Array.iteri
        (fun i (m, n, k) ->
          let r, dt = Probe.timed (fun () -> Compiler.simulate c progs.(i)) in
          secs := Probe.scaled dt :: !secs;
          let flops = 2. *. float_of_int m *. float_of_int n *. float_of_int k in
          tflops := (flops /. r.Mikpoly_accel.Simulator.seconds /. 1e12) :: !tflops)
        shapes)
    per_platform;
  (Stats.geomean !tflops, Stats.median !secs)

(* Host nanoseconds ({!Probe.scaled}) per Eq.-2 region score over every
   kernel of the platform's set and the first shapes of the stream. *)
let region_ns shapes =
  let c = Compiler.create Hardware.a100 in
  Probe.settle ();
  let entries = (Compiler.kernels c).Kernel_set.entries in
  let sample = Array.sub shapes 0 (min 64 (Array.length shapes)) in
  let sink = ref 0. and calls = ref 0 in
  let (), dt =
    Probe.timed (fun () ->
        for _ = 1 to 20 do
          Array.iter
            (fun (m, n, k) ->
              Array.iter
                (fun e ->
                  sink :=
                    !sink +. Cost_model.region_cost Cost_model.Full e ~rows:m ~cols:n ~k_len:k;
                  incr calls)
                entries)
            sample
        done)
  in
  if Float.is_nan !sink then failwith "Cost_model.region_cost returned NaN";
  Probe.scaled dt *. 1e9 /. float_of_int !calls

(* --- The compile part of a workload ---------------------------------- *)

type t = {
  shapes : shape array;
  jobs : int;
  tflops_geomean : float;
  simulate_us : float;  (** median host µs per [Compiler.simulate] *)
  region_ns : float;
  bad_programs : int;  (** identity or numeric check failures *)
  numeric_checked : int;
  multi_region_checked : int;
  samples : float list array array;
      (** per platform and shape, host seconds of each cold compile *)
  mutable warm_s : float list;  (** warm pass seconds at [jobs] *)
  mutable pass_s : float list;  (** untraced pass seconds *)
  mutable traced_pass_s : float list;
  mutable warm1_s : float list;  (** warm pass seconds at jobs = 1 *)
  mutable reference : tally option;  (** first measured pass *)
  mutable repeat_ok : bool;  (** every untraced pass repeated it *)
}

(* A warm-up pass, whose programs then go through every check. Its
   tally is not the reference: first-use allocations in the layers land
   in it. *)
let create ~seed ~jobs ~numeric shapes =
  let first, _ = cold_pass shapes in
  let warmed, _ = warm_pass ~jobs shapes in
  let mismatches = identity_mismatches shapes first warmed in
  let numeric_checked, multi_region_checked, numeric_failed =
    if numeric then numeric_check ~seed first else (0, 0, 0)
  in
  let tflops_geomean, simulate_s = simulate_all shapes first in
  {
    shapes;
    jobs;
    tflops_geomean;
    simulate_us = simulate_s *. 1e6;
    region_ns = region_ns shapes;
    bad_programs = mismatches + numeric_failed;
    numeric_checked;
    multi_region_checked;
    samples = Array.map (fun _ -> Array.make (Array.length shapes) []) platforms;
    warm_s = [];
    pass_s = [];
    traced_pass_s = [];
    warm1_s = [];
    reference = None;
    repeat_ok = true;
  }

let programs t = Array.length platforms * Array.length t.shapes

(* One cold pass over every shape on fresh compilers, then one warm pass
   at [jobs], after a {!Probe.settle}. An untraced pass adds a sample to
   every timing and must repeat the reference tally; a traced pass only
   feeds the span aggregates. *)
let pass t ~traced =
  let ((per_platform, tally), (_, warm_s)), dt =
    Probe.timed (fun () ->
        let cold = cold_pass t.shapes in
        (cold, warm_pass ~jobs:t.jobs t.shapes))
  in
  let dt = Probe.scaled dt in
  if traced then t.traced_pass_s <- dt :: t.traced_pass_s
  else begin
    t.pass_s <- dt :: t.pass_s;
    (match t.reference with
    | None -> t.reference <- Some tally
    | Some r -> if tally <> r then t.repeat_ok <- false);
    Array.iteri
      (fun p (_, _, secs) ->
        Array.iteri (fun i x -> t.samples.(p).(i) <- x :: t.samples.(p).(i)) secs)
      per_platform;
    t.warm_s <- warm_s :: t.warm_s
  end

(* The same warm pass sequentially, for the batch speed-up. *)
let warm_jobs1 t =
  Probe.settle ();
  t.warm1_s <- snd (warm_pass ~jobs:1 t.shapes) :: t.warm1_s

let passes t = List.length t.warm_s

let tally t = Option.value t.reference ~default:zero

(* Host µs per cache-miss compile: a percentile over the shapes (at
   least 1000, so p99 has ten beyond it) of each shape's median over the
   passes. Taking the median per shape first keeps a collector slice
   that lands on one call from moving the tail. *)
let percentile_us t p q =
  Stats.percentile q (Array.to_list (Array.map Stats.median t.samples.(p))) *. 1e6

let gpu_p50 t = percentile_us t 0 50.

let gpu_p99 t = percentile_us t 0 99.

let npu_p50 t = percentile_us t 1 50.

let npu_p99 t = percentile_us t 1 99.

(* Shapes per second of the fastest warm pass. With two domains, a pass
   whose worker is not scheduled promptly waits whole scheduler ticks at
   its synchronisation points, so pass times on a shared host fall into
   tick-sized steps; the fastest pass is the program's own speed. *)
let fastest_warm xs = List.fold_left Float.min infinity xs

let warm_rate t = float_of_int (programs t) /. fastest_warm t.warm_s

let warm_speedup t =
  match t.warm1_s with [] -> 0. | l -> fastest_warm l /. fastest_warm t.warm_s
