type class_view = {
  cv_class : int;
  cv_level : Health.level;
  cv_probe_ready : bool;
  cv_replicas : int;
  cv_queue : int;
  cv_inflight : int;
  cv_service : float;
  cv_cold_compile : float;
  cv_backlog : float;
}

type decision = {
  d_class : int;
  d_cost : float;
  d_probe : bool;
  d_forced : bool;
}

(* The WFQ admission share: a weight-w tenant is served ahead of most
   of a mixed queue, so the wait it actually experiences is roughly the
   class backlog scaled down by its weight. Hetero.run routes at weight
   1 (the raw backlog) today. *)
let cost_w ~weight v =
  v.cv_service +. v.cv_cold_compile
  +. (v.cv_backlog
     /. float_of_int (max 1 v.cv_replicas)
     /. float_of_int (max 1 weight))

let cost v = cost_w ~weight:1 v

(* Deadline-aware rank. The cost is also the predicted TTFT, so each
   class either [fits] the request's first-token budget (with a safety
   margin absorbing prediction error) or does not. Classes that fit
   strictly outrank classes that miss; among fitting classes the
   SLOWEST-service class wins — the classic "don't spend the fast
   machine on work that doesn't need it" dispatch rule, which is what
   reserves the latency-strong class for tight-deadline traffic while
   loose batch jobs soak the throughput class. Among missing classes
   (and when no budget is given) the plain cheapest cost wins. *)
let safety_margin = 0.7

let fits ~weight ~ttft_budget v =
  cost_w ~weight v <= safety_margin *. ttft_budget

(* [better a b]: strict, so a fold over views in backend order keeps
   ties on the lowest class index. *)
let better ~weight ~ttft_budget a b =
  let cost = cost_w ~weight in
  if Float.is_finite ttft_budget then
    match (fits ~weight ~ttft_budget a, fits ~weight ~ttft_budget b) with
    | true, false -> true
    | false, true -> false
    | true, true ->
      a.cv_service > b.cv_service
      || (a.cv_service = b.cv_service && cost a < cost b)
    | false, false -> cost a < cost b
  else cost a < cost b

let pick ~weight ~ttft_budget views =
  List.fold_left
    (fun best v ->
      match best with
      | Some b when not (better ~weight ~ttft_budget v b) -> Some b
      | _ -> Some v)
    None views

let route ?(degraded_max_tokens = max_int) ?(ttft_budget = infinity)
    ?(weight = 1) ~tokens views =
  if views = [] then invalid_arg "Router.route: no classes";
  let eligible =
    List.filter
      (fun v ->
        match v.cv_level with
        | Health.Healthy -> true
        | Health.Degraded -> tokens <= degraded_max_tokens
        | Health.Evicted -> v.cv_probe_ready)
      views
  in
  match pick ~weight ~ttft_budget eligible with
  | Some v ->
    {
      d_class = v.cv_class;
      d_cost = cost_w ~weight v;
      d_probe = v.cv_level = Health.Evicted;
      d_forced = false;
    }
  | None ->
    (* Nothing healthy enough: route to the cheapest class anyway —
       a degraded fleet degrades capacity, never availability. *)
    let v = Option.get (pick ~weight ~ttft_budget views) in
    {
      d_class = v.cv_class;
      d_cost = cost_w ~weight v;
      d_probe = false;
      d_forced = true;
    }
