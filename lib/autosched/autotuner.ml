open Mikpoly_accel

type tuned = {
  model : Perf_model.t;
  rank_score : float;
}

type rank_style = Champion | Mean_normalized | Mean_tflops

let synthetic_sizes ~n_syn =
  if n_syn < 0 then invalid_arg "Autotuner.synthetic_sizes: n_syn < 0";
  List.init (n_syn + 1) (fun i -> 1 lsl i)

let ceil_div a b = (a + b - 1) / b

let pattern_one_cycles hw (kd : Kernel_desc.t) ~m ~n ~k =
  let tasks = ceil_div m kd.um * ceil_div n kd.un in
  let t_steps = ceil_div k kd.uk in
  let cap = Kernel_model.wave_capacity hw kd in
  let waves = ceil_div tasks cap in
  float_of_int waves *. Pipeline.nominal_task_cycles hw kd ~t_steps

let size_tflops hw kd ~size =
  let cycles = pattern_one_cycles hw kd ~m:size ~n:size ~k:size in
  let seconds = Hardware.cycles_to_seconds hw cycles in
  let flops = 2. *. (float_of_int size ** 3.) in
  flops /. seconds /. 1e12

let generate ?(jobs = 0) ?(n_gen = 32) ?(n_syn = 12) ?(n_mik = 40)
    ?(n_pred = 5120) ?(dtype = Mikpoly_tensor.Dtype.F16)
    ?(path = Hardware.Matrix) ?(codegen_eff = 0.88) ?(rank_style = Champion)
    hw =
  let jobs = Mikpoly_util.Domain_pool.resolve_jobs jobs in
  (* Candidate scoring and g_predict learning are pure per-kernel maps —
     the bulk of the offline stage — so they fan out over the shared
     domain pool; each result lands in its own index slot, which keeps
     the result list identical to the sequential one. *)
  let pmap f l =
    if jobs > 1 then begin
      let arr = Array.of_list l in
      let n = Array.length arr in
      let out = Array.make n None in
      (* Batched fan-out: coarse chunks amortize pool dispatch, and the
         [min_chunk] floor keeps tiny candidate lists on the inline path
         (zero dispatches) instead of paying per-element submissions. *)
      Mikpoly_util.Domain_pool.parallel_for_batched
        (Mikpoly_util.Domain_pool.global ~jobs ())
        ~min_chunk:8 ~start:0 ~stop:n
        (fun i -> out.(i) <- Some (f arr.(i)));
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) out)
    end
    else List.map f l
  in
  let candidates = Search_space.enumerate hw ~n_gen ~dtype ~path ~codegen_eff in
  let sizes = Array.of_list (synthetic_sizes ~n_syn) in
  let perfs =
    pmap
      (fun kd -> (kd, Array.map (fun s -> size_tflops hw kd ~size:s) sizes))
      candidates
  in
  (* Best-normalized mean across the synthetic sizes. *)
  let n_sizes = Array.length sizes in
  let best_per_size = Array.make n_sizes 0. in
  List.iter
    (fun (_, v) ->
      Array.iteri (fun i x -> if x > best_per_size.(i) then best_per_size.(i) <- x) v)
    perfs;
  let score v =
    (* Default (Champion): a kernel is kept for the sizes it excels at —
       rank primarily by its best normalized performance across the
       synthetic sizes (so every per-size champion leads the ranking),
       tie-broken by the mean. The other styles exist for the ranking-rule
       ablation. *)
    let best_ratio = ref 0. and mean_norm = ref 0. and mean_tf = ref 0. in
    Array.iteri
      (fun i x ->
        mean_tf := !mean_tf +. x;
        if best_per_size.(i) > 0. then begin
          let r = x /. best_per_size.(i) in
          if r > !best_ratio then best_ratio := r;
          mean_norm := !mean_norm +. r
        end)
      v;
    match rank_style with
    | Champion -> !best_ratio +. (0.05 *. !mean_norm /. float_of_int n_sizes)
    | Mean_normalized -> !mean_norm /. float_of_int n_sizes
    | Mean_tflops -> !mean_tf /. float_of_int n_sizes
  in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare (b : float) a)
      (List.map (fun (kd, v) -> (kd, score v)) perfs)
  in
  (* Keep one reduction depth per (uM, uN) footprint, Top-n_mik overall. *)
  let seen = Hashtbl.create 64 in
  let top = ref [] and kept = ref 0 in
  List.iter
    (fun ((kd : Kernel_desc.t), s) ->
      if !kept < n_mik && not (Hashtbl.mem seen (kd.um, kd.un)) then begin
        Hashtbl.add seen (kd.um, kd.un) ();
        top := (kd, s) :: !top;
        incr kept
      end)
    ranked;
  pmap
    (fun (kd, rank_score) -> { model = Perf_model.learn ~n_pred hw kd; rank_score })
    (List.rev !top)
