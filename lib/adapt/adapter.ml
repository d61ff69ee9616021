open Mikpoly_ir
module Compiler = Mikpoly_core.Compiler
module Polymerize = Mikpoly_core.Polymerize
module Kernel_set = Mikpoly_core.Kernel_set
module Cost_model = Mikpoly_core.Cost_model
module Hardware = Mikpoly_accel.Hardware
module Kernel_desc = Mikpoly_accel.Kernel_desc
module Load = Mikpoly_accel.Load
module Simulator = Mikpoly_accel.Simulator
module Tm = Mikpoly_telemetry
module Breaker = Mikpoly_fault.Breaker

let m_observations = Tm.Metrics.counter "adapt.observations"

let m_drift_events = Tm.Metrics.counter "adapt.drift_events"

let m_recompiles = Tm.Metrics.counter "adapt.recompiles"

let m_breaker_skipped = Tm.Metrics.counter "adapt.breaker.skipped"

type params = {
  drift : Drift.params;
  window : int;
  min_observations : int;
  hot_limit : int;
  breaker : Breaker.policy;
  stall_budget : float;
}

let default_params =
  {
    drift = Drift.default_params;
    window = 64;
    min_observations = 4;
    hot_limit = 8;
    breaker = { Breaker.failure_threshold = 3; cooldown = 256. };
    stall_budget = infinity;
  }

type stats = {
  observations : int;
  drift_events : int;
  recalibrations : int;
  recompiles : int;
  invalidated : int;
  calibrated_kernels : int;
  residual_ewma : float;
  breaker_state : string;
  breaker_trips : int;
  breaker_skipped : int;
}

type hot = { mutable touches : int }

type t = {
  params : params;
  compiler : Compiler.t;
  registered : bool;
  detector : Drift.t;
  windows : (Calibration.key, (float * float) list) Hashtbl.t;
  hot : (int * int * int, hot) Hashtbl.t;
  mutable exec_hw : Hardware.t option;
  mutable calibration : Calibration.t;
  mutable observations : int;
  mutable drift_events : int;
  mutable recalibrations : int;
  mutable recompiles : int;
  mutable invalidated : int;
  mutable pending_stall : float;
  breaker : Breaker.t;
  mutable breaker_skipped : int;
}

let window_sample t key sample =
  let w = Option.value (Hashtbl.find_opt t.windows key) ~default:[] in
  let w = sample :: w in
  Hashtbl.replace t.windows key
    (List.filteri (fun i _ -> i < t.params.window) w)

let key_of_desc (d : Kernel_desc.t) = (d.um, d.un, d.uk)

let model_fingerprint t = Hardware.fingerprint (Compiler.hardware t.compiler)

(* The fingerprint a calibration is valid for: the device observations
   actually come from — the injected execution hardware under drift, the
   compiler's own model otherwise. *)
let effective_fingerprint t =
  match t.exec_hw with
  | Some hw -> Hardware.fingerprint hw
  | None -> model_fingerprint t

let effective_hardware t =
  match t.exec_hw with Some hw -> hw | None -> Compiler.hardware t.compiler

(* Refit all per-kernel corrections from the
   current observation windows, swap the compiler's scorer, invalidate
   every cached program ranked with a since-changed kernel correction and
   recompile the hottest invalidated shapes, charging the modeled search
   time to [pending_stall]. *)
let recalibrate t =
  let samples =
    Hashtbl.fold (fun key w acc -> (key, w) :: acc) t.windows []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let previous = t.calibration in
  let cal = Calibration.fit ~fingerprint:(effective_fingerprint t) samples in
  t.calibration <- cal;
  t.recalibrations <- t.recalibrations + 1;
  let correction =
    Calibration.correction_for_set cal (Compiler.kernels t.compiler)
  in
  Compiler.set_correction t.compiler (Some correction);
  let changed =
    let refit =
      List.filter
        (fun (key, curve) ->
          match Calibration.find previous key with
          | Some old -> not (Calibration.curve_equal old curve)
          | None -> not (Calibration.curve_equal Calibration.Identity curve))
        (Calibration.curves cal)
      |> List.map fst
    in
    (* Kernels calibrated before but absent from the refit revert to the
       raw model — programs ranked under their old curve are stale too. *)
    let reverted =
      List.filter_map
        (fun (key, _) ->
          match Calibration.find cal key with
          | None -> Some key
          | Some _ -> None)
        (Calibration.curves previous)
    in
    refit @ reverted
  in
  let uses_changed _shape (c : Polymerize.compiled) =
    List.exists
      (fun (r : Region.t) -> List.mem (key_of_desc r.kernel) changed)
      c.program.regions
  in
  let dropped = Compiler.invalidate_if t.compiler uses_changed in
  t.invalidated <- t.invalidated + dropped;
  (* Recompile the hottest shapes immediately so the steady state pays no
     first-touch stall; everything else recompiles lazily on next use. *)
  let hottest =
    Hashtbl.fold (fun shape h acc -> (shape, h.touches) :: acc) t.hot []
    |> List.sort (fun (s1, c1) (s2, c2) ->
           match compare c2 c1 with 0 -> compare s1 s2 | c -> c)
    |> List.filteri (fun i _ -> i < t.params.hot_limit)
    |> List.map fst
  in
  let recompiled =
    List.fold_left
      (fun acc (m, n, k) ->
        let op = Operator.gemm ~m ~n ~k () in
        if Compiler.cached t.compiler op then acc
        else begin
          let c = Compiler.compile t.compiler op in
          t.pending_stall <-
            t.pending_stall +. Polymerize.modeled_search_seconds c;
          acc + 1
        end)
      0 hottest
  in
  t.recompiles <- t.recompiles + recompiled;
  for _ = 1 to recompiled do
    Tm.Metrics.incr m_recompiles
  done;
  (dropped, recompiled)

let corrected_prediction t (obs : Compiler.observation) =
  List.fold_left
    (fun acc (r : Compiler.region_observation) ->
      acc
      +. Calibration.apply t.calibration (key_of_desc r.ro_kernel) r.ro_predicted)
    0. obs.ob_regions

let observe t (obs : Compiler.observation) =
  t.observations <- t.observations + 1;
  Tm.Metrics.incr m_observations;
  List.iter
    (fun (r : Compiler.region_observation) ->
      window_sample t (key_of_desc r.ro_kernel)
        (r.ro_predicted, r.ro_observed))
    obs.ob_regions;
  (match Hashtbl.find_opt t.hot obs.ob_shape with
  | Some h -> h.touches <- h.touches + 1
  | None -> Hashtbl.add t.hot obs.ob_shape { touches = 1 });
  let corrected = corrected_prediction t obs in
  let residual =
    if corrected > 0. && obs.ob_observed > 0. then
      log (obs.ob_observed /. corrected)
    else 0.
  in
  if
    Drift.observe t.detector residual
    && t.observations >= t.params.min_observations
  then begin
    (* The breaker's clock is the observation count — the adapter's
       only monotone notion of time, and deterministic. *)
    let now = float_of_int t.observations in
    if not (Breaker.allow t.breaker ~now) then begin
      (* Recalibration has been failing (or blowing its stall
         budget): keep serving on the current calibration rather
         than thrash. The detector will fire again; the first fire
         past the cooldown is the half-open probe. *)
      t.breaker_skipped <- t.breaker_skipped + 1;
      Tm.Metrics.incr m_breaker_skipped;
      false
    end
    else begin
      t.drift_events <- t.drift_events + 1;
      Tm.Metrics.incr m_drift_events;
      (* Regime change: samples windowed before the shift describe
         the old device and would drag the refit toward it. Drop
         them and reseed from the observation that exposed the
         drift; subsequent traffic and probes refill the windows
         with the new regime. *)
      Hashtbl.reset t.windows;
      List.iter
        (fun (r : Compiler.region_observation) ->
          window_sample t (key_of_desc r.ro_kernel)
            (r.ro_predicted, r.ro_observed))
        obs.ob_regions;
      let act () =
        let dropped, recompiled = recalibrate t in
        if Tm.Tracer.enabled () then begin
          Tm.Tracer.annotate "invalidated" (string_of_int dropped);
          Tm.Tracer.annotate "recompiled" (string_of_int recompiled)
        end
      in
      let react () =
        if Tm.Tracer.enabled () then
          Tm.Tracer.with_span "adapt.recalibrate"
            ~attrs:[ ("residual", Printf.sprintf "%.4f" residual) ]
            act
        else act ()
      in
      let stall0 = t.pending_stall in
      (match react () with
      | () ->
        if t.pending_stall -. stall0 > t.params.stall_budget then
          Breaker.record_failure t.breaker ~now
        else Breaker.record_success t.breaker
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception _ ->
        (* A failed fit must not take serving down: the previous
           calibration stays installed, the failure feeds the
           breaker. *)
        Breaker.record_failure t.breaker ~now);
      true
    end
  end
  else false

let create ?(params = default_params) ?(register = true) compiler =
  let t =
    {
      params;
      compiler;
      registered = register;
      detector = Drift.create ~params:params.drift ();
      windows = Hashtbl.create 64;
      hot = Hashtbl.create 64;
      exec_hw = None;
      calibration =
        Calibration.identity
          ~fingerprint:(Hardware.fingerprint (Compiler.hardware compiler));
      observations = 0;
      drift_events = 0;
      recalibrations = 0;
      recompiles = 0;
      invalidated = 0;
      pending_stall = 0.;
      breaker = Breaker.create ~policy:params.breaker ();
      breaker_skipped = 0;
    }
  in
  if register then Compiler.set_observer compiler (Some (fun obs -> ignore (observe t obs)));
  t

let compiler t = t.compiler

let set_execution_hardware t hw = t.exec_hw <- Some hw

let clear_execution_hardware t = t.exec_hw <- None

let observe_shape t (m, n, k) =
  let op = Operator.gemm ~m ~n ~k () in
  let c = Compiler.compile t.compiler op in
  let result, obs = Compiler.simulate_observed ?hw:t.exec_hw t.compiler c in
  if not t.registered then ignore (observe t obs);
  (result, obs)

let calibrate t = ignore (recalibrate t)

let ceil_div a b = (a + b - 1) / b

let probe t (m, n, k) =
  (* Active profiling: run one single-kernel program per micro-kernel on
     the execution device and window the (predicted, observed) pair, so a
     subsequent recalibration covers the whole kernel set rather than only
     the kernels compiled programs happened to use. Bypasses the drift
     detector — probes are measurements, not serving traffic. *)
  let hw = effective_hardware t in
  let set = Compiler.kernels t.compiler in
  let samples =
    Array.to_list set.entries
    |> List.map (fun (e : Kernel_set.entry) ->
           let n_tasks = ceil_div m e.desc.um * ceil_div n e.desc.un in
           let t_steps = ceil_div k e.desc.uk in
           let region = Load.region ~kernel:e.desc ~n_tasks ~t_steps in
           let load =
             Load.make ~regions:[ region ]
               ~footprint_bytes:
                 (Load.gemm_footprint_bytes ~dtype:e.desc.dtype ~m ~n ~k)
           in
           let captured = ref [] in
           ignore (Simulator.run ~observe:(fun os -> captured := os) hw load);
           let observed =
             match !captured with
             | [ o ] -> o.Simulator.obs_cycles
             | _ -> 0.
           in
           let wave = float_of_int (ceil_div n_tasks e.wave_capacity) in
           let pipe = Cost_model.f_pipe e ~k_len:k in
           (key_of_desc e.desc, (wave *. pipe, observed)))
    |> List.filter (fun (_, (p, o)) -> p > 0. && o > 0.)
  in
  List.iter (fun (key, sample) -> window_sample t key sample) samples

let calibration t = t.calibration

let correction t = Compiler.correction t.compiler

let drain_stall_seconds t =
  let s = t.pending_stall in
  t.pending_stall <- 0.;
  s

let stats t =
  {
    observations = t.observations;
    drift_events = t.drift_events;
    recalibrations = t.recalibrations;
    recompiles = t.recompiles;
    invalidated = t.invalidated;
    calibrated_kernels = List.length (Calibration.curves t.calibration);
    residual_ewma = Drift.ewma t.detector;
    breaker_state = Breaker.state_name (Breaker.state t.breaker);
    breaker_trips = (Breaker.stats t.breaker).trips;
    breaker_skipped = t.breaker_skipped;
  }

let save_profile t ~path =
  Profile_store.save ~path (effective_hardware t) t.calibration

let load_profile t ~path =
  match Profile_store.load ~path (effective_hardware t) with
  | Error _ as e -> e
  | Ok cal ->
    t.calibration <- cal;
    t.recalibrations <- t.recalibrations + 1;
    let correction =
      Calibration.correction_for_set cal (Compiler.kernels t.compiler)
    in
    Compiler.set_correction t.compiler (Some correction);
    Ok ()
