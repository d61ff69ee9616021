(* The serving event-loop kernel shared by {!Fleet.run} and
   [Mikpoly_hetero.Hetero.run].

   A run is a set of device classes, each with replica slots, its own
   WFQ and a class-shared ready-at program store. The kernel
   owns the step (WFQ offer, [Batcher.admit], coalesced bucketing, the
   replica cache -> class store -> on-path compile ladder, fault draws,
   prefill/decode advance), crash requeue, event selection and the
   exactly-one-terminal-status ledger. Everything else is a plane the
   caller passes to {!run}; an absent plane is off, and the kernel never
   asks which caller it serves:
   - [learn]: sees every arrival admitted past the rate-limit door;
   - [route]: picks the class an arrival queues on (default class 0);
   - [affinity]: delays when a slot may lead a group, and hears which
     slot led each offer;
   - [health]: sees every step outcome; returning [true] means it moved
     the failed batch off its slot (a trip drain), so the kernel does
     not requeue it;
   - [hedge], [refresh], [tick]: timer planes.
   One hook is given to {!create} instead, because planes push through
   the kernel too: [on_enqueue] hears every copy that enters a class
   queue from outside it (arrival, {!push}, {!bounce}, {!transfer}).

   Each class also keeps its work count: the copies queued or in flight
   on it per bucket signature, updated at every mutation site, so
   {!fold_work} reads a class backlog in O(#buckets).

   Event ties break crash < arrival < hedge < refresh < tick < step,
   then class index, then slot index, so a run is a pure function of
   its inputs. Planes read and update the state record [t] directly. *)

module Sch = Mikpoly_serve.Scheduler
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Plan = Mikpoly_fault.Plan

module Ranks = Hashtbl.Make (Int)

type status = Completed | Dropped | Rate_limited

type active = {
  a_tg : Tenant.tagged;
  mutable a_remaining : int;
  mutable a_kv : int;
  mutable a_prefill : int;
  mutable a_first : float;
}

type slot = {
  sl_idx : int;
  mutable sl_active : bool;
  mutable sl_clock : float;
  mutable sl_act : active list;
  mutable sl_cache : unit Shape_cache.t;
  mutable sl_step : int;
  mutable sl_down_until : float;
}

type cls = {
  c_idx : int;
  c_engine : Sch.engine;
  c_slots : slot array;
  mutable c_q : Wfq.t;
  mutable c_store : float Shape_cache.t;
      (* class-shared program store: shape -> event-clock ready-at, so
         a program published by one replica's on-path compile is
         stall-free for its siblings once that compile has finished *)
  mutable c_retired : Shape_cache.stats list;
  mutable c_completed : int;
  mutable c_steps : int;
  mutable c_stall : float;
  mutable c_service : float;
  mutable c_requeues : int;
  mutable c_brownout_steps : int;
  mutable c_store_hits : int;
  mutable c_work : int array;
      (* copies queued or in flight on this class, by signature rank
         (see [rank]); grown when a new signature is ranked *)
}

type t = {
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
  coalesce : bool;
  faults : Plan.t;
  classes : cls array;
  limiter : Ratelimit.t option;
  mutable now : float;  (* time of the event being handled *)
  mutable pending : Tenant.tagged list;
  mutable crashes_left : (float * int) list;
  copies : (int, int) Hashtbl.t;  (* the ledger, see [set_status] *)
  running : (int, unit) Hashtbl.t;
  statuses : (int, status) Hashtbl.t;
  mutable completed : Sch.completed list;  (* newest first *)
  mutable dropped : Request.t list;  (* newest first *)
  mutable rate_limited : Request.t list;  (* newest first *)
  mutable met : int;  (* completions within their SLO *)
  mutable stall_total : float;
  mutable actual_tokens : int;
  mutable padded_tokens : int;
  mutable qsum : int;
  mutable qsamples : int;
  mutable makespan : float;
  mutable crashes : int;
  mutable injected : int;
  mutable requeues : int;
  mutable cancels : int;  (* losing copies discarded *)
  mutable coalesced_groups : int;
  ranks : int Ranks.t;  (* bucket signature -> dense rank *)
  mutable ranked : (int * int) array;  (* (signature, rank), ascending *)
  on_enqueue : (cls -> Tenant.tagged -> unit) option;
}

type timer = { next : unit -> float option; fire : now:float -> unit }

type affinity = {
  lead_time : slot -> aged:float -> Tenant.tagged -> float;
  claim : slot -> Tenant.tagged -> unit;
}

type planes = {
  learn : (now:float -> Tenant.tagged -> unit) option;
  route : (now:float -> Tenant.tagged -> cls) option;
  affinity : affinity option;
  health : (cls -> now:float -> slowdown:float -> failed:bool -> bool) option;
  hedge : timer option;
  refresh : timer option;
  tick : timer option;
}

let slo_met (c : Sch.completed) =
  let r = c.Sch.request in
  c.Sch.first_token -. r.Request.arrival <= r.Request.slo.Request.ttft
  && c.Sch.finish -. r.Request.arrival <= r.Request.slo.Request.e2e

let create ?(faults = Plan.none) ?ratelimit ?on_enqueue ~batcher ~bucketing
    ~cache_capacity ~coalesce ~classes trace =
  let next_idx = ref 0 in
  let classes =
    Array.of_list
      (List.mapi
         (fun i (engine, n) ->
           let slots =
             Array.init n (fun _ ->
                 let idx = !next_idx in
                 incr next_idx;
                 {
                   sl_idx = idx;
                   sl_active = true;
                   sl_clock = 0.;
                   sl_act = [];
                   sl_cache =
                     Shape_cache.create ~capacity:cache_capacity;
                   sl_step = 0;
                   sl_down_until = 0.;
                 })
           in
           {
             c_idx = i;
             c_engine = engine;
             c_slots = slots;
             c_q = Wfq.create ();
             c_store = Shape_cache.create ~capacity:cache_capacity;
             c_retired = [];
             c_completed = 0;
             c_steps = 0;
             c_stall = 0.;
             c_service = 0.;
             c_requeues = 0;
             c_brownout_steps = 0;
             c_store_hits = 0;
             c_work = [||];
           })
         classes)
  in
  {
    batcher;
    bucketing;
    cache_capacity;
    coalesce;
    faults;
    classes;
    limiter =
      Option.map
        (fun base ->
          Ratelimit.create
            ~rate_for:(fun t -> Ratelimit.for_tier ~base t.Tenant.tier)
            ())
        ratelimit;
    now = 0.;
    pending =
      List.stable_sort
        (fun (a : Tenant.tagged) (b : Tenant.tagged) ->
          Request.compare_arrival a.Tenant.req b.Tenant.req)
        trace;
    crashes_left = faults.Plan.crashes;
    copies = Hashtbl.create 256;
    running = Hashtbl.create 64;
    statuses = Hashtbl.create 256;
    completed = [];
    dropped = [];
    rate_limited = [];
    met = 0;
    stall_total = 0.;
    actual_tokens = 0;
    padded_tokens = 0;
    qsum = 0;
    qsamples = 0;
    makespan = 0.;
    crashes = 0;
    injected = 0;
    requeues = 0;
    cancels = 0;
    coalesced_groups = 0;
    ranks = Ranks.create 16;
    ranked = [||];
    on_enqueue;
  }

let signature k tg =
  Bucketing.bucket k.bucketing tg.Tenant.req.Request.prompt_len

(* Dense rank of a bucket signature, assigned on first sight; every
   class's work array grows to cover it. *)
let rank k sg =
  match Ranks.find k.ranks sg with
  | r -> r
  | exception Not_found ->
    let r = Ranks.length k.ranks in
    Ranks.add k.ranks sg r;
    k.ranked <- Array.append k.ranked [| (sg, r) |];
    Array.sort compare k.ranked;
    Array.iter
      (fun c ->
        let n = Array.length c.c_work in
        if r >= n then begin
          let w = Array.make (max 8 (2 * n)) 0 in
          Array.blit c.c_work 0 w 0 n;
          c.c_work <- w
        end)
      k.classes;
    r

(* Add [d] copies of [tg]'s signature to class [c]'s work count. *)
let count k c tg d =
  let r = rank k (signature k tg) in
  c.c_work.(r) <- c.c_work.(r) + d

(* [f signature count acc] over class [c]'s non-zero work counts, in
   ascending signature order. *)
let fold_work k c f init =
  Array.fold_left
    (fun acc (sg, r) ->
      let n = c.c_work.(r) in
      if n > 0 then f sg n acc else acc)
    init k.ranked

(* Recount every class's queue and slots against its work counts: the
   invariant the mutation sites keep, checked by tests only. *)
let work_consistent k =
  Array.for_all
    (fun c ->
      let recount = Array.make (Array.length c.c_work) 0 in
      let tally tg =
        match Ranks.find_opt k.ranks (signature k tg) with
        | Some r ->
          recount.(r) <- recount.(r) + 1;
          true
        | None -> false
      in
      List.for_all tally (Wfq.to_list c.c_q)
      && Array.for_all (fun s -> List.for_all (fun a -> tally a.a_tg) s.sl_act)
           c.c_slots
      && recount = c.c_work)
    k.classes

let inflight c =
  Array.fold_left (fun acc s -> acc + List.length s.sl_act) 0 c.c_slots

let queued k = Array.fold_left (fun acc c -> acc + Wfq.length c.c_q) 0 k.classes

let work_remains k =
  k.pending <> []
  || Array.exists
       (fun c ->
         (not (Wfq.is_empty c.c_q))
         || Array.exists (fun s -> s.sl_act <> []) c.c_slots)
       k.classes

let class_caches c =
  (Array.to_list c.c_slots
  |> List.filter (fun s -> s.sl_active)
  |> List.map (fun s -> Shape_cache.stats s.sl_cache))
  @ List.rev c.c_retired

(* The ledger: exactly one terminal status per trace request, however
   many copies hedging and drains put in flight. [copies] counts live
   copies (queued or running), [running] marks the admitted copy so a
   sibling reaching a grant is discarded, and [statuses] is
   write-once. *)
let set_status k (req : Request.t) st =
  if not (Hashtbl.mem k.statuses req.Request.id) then begin
    Hashtbl.replace k.statuses req.Request.id st;
    match st with
    | Completed -> ()
    | Dropped -> k.dropped <- req :: k.dropped
    | Rate_limited -> k.rate_limited <- req :: k.rate_limited
  end

let add_copy k id = Hashtbl.replace k.copies id (Hashtbl.find k.copies id + 1)

let drop_copy k (req : Request.t) =
  let n = Hashtbl.find k.copies req.Request.id - 1 in
  Hashtbl.replace k.copies req.Request.id n;
  n

(* A copy enters class [c]'s queue and its work count. *)
let enqueue k c tg ~front =
  count k c tg 1;
  if front then Wfq.push_front c.c_q tg else Wfq.push c.c_q tg;
  Option.iter (fun f -> f c tg) k.on_enqueue

let push k c tg = enqueue k c tg ~front:false

(* Slot [s] of class [src] loses its in-flight batch to the fronts of
   [into]'s lanes; returns the batch size. *)
let bounce k src s ~into =
  let n = List.length s.sl_act in
  List.iter
    (fun a ->
      Hashtbl.remove k.running a.a_tg.Tenant.req.Request.id;
      count k src a.a_tg (-1);
      enqueue k into a.a_tg ~front:true)
    (List.rev s.sl_act);
  s.sl_act <- [];
  n

(* Move [src]'s whole waiting queue, in WFQ order, to the tails of
   [into]'s lanes; returns how many copies moved. *)
let transfer k ~src ~into =
  let waiting = Wfq.to_list src.c_q in
  src.c_q <- Wfq.create ();
  List.iter
    (fun tg ->
      count k src tg (-1);
      push k into tg)
    waiting;
  List.length waiting

(* In-flight work bounces back to the front of its tenants' lanes
   uncharged: progress (tokens, KV) is lost with the step or the
   process, the requests are not. *)
let requeue k c s =
  let n = bounce k c s ~into:c in
  c.c_requeues <- c.c_requeues + n;
  k.requeues <- k.requeues + n

let periodic k ~interval fire =
  let next_at = ref interval in
  {
    next = (fun () -> if work_remains k then Some !next_at else None);
    fire =
      (fun ~now ->
        fire ~now;
        next_at := !next_at +. interval);
  }

(* Policy-aging instant for a queued request, mirroring the [Batcher]
   predicates over the class queue: a Timeout batcher holds a request
   back for its window unless the queue alone can fill the batch. *)
let aged_time k c in_flight tg =
  let arrival = tg.Tenant.req.Request.arrival in
  match k.batcher with
  | Batcher.Greedy _ | Batcher.Slo_aware _ -> arrival
  | Batcher.Timeout { window; max_batch } ->
    if Wfq.length c.c_q + in_flight >= max_batch then arrival
    else arrival +. window

(* Earliest instant slot [s] may take [tg] as a group leader. *)
let lead_time k planes c s in_flight tg =
  let aged = aged_time k c in_flight tg in
  match planes.affinity with None -> aged | Some a -> a.lead_time s ~aged tg

let next_step_time k planes c s =
  if not s.sl_active then None
  else
    let base = Float.max s.sl_clock s.sl_down_until in
    if s.sl_act <> [] then Some base
    else if Wfq.is_empty c.c_q then None
    else
      let earliest =
        List.fold_left
          (fun acc tg -> Float.min acc (lead_time k planes c s 0 tg))
          infinity (Wfq.to_list c.c_q)
      in
      Some (Float.max base earliest)

let arrive k planes tg ~now =
  let admitted =
    match k.limiter with Some l -> Ratelimit.admit l ~now tg | None -> true
  in
  if not admitted then
    (* Shed at the door: never reaches a queue, a router, a learner or
       a cache. *)
    set_status k tg.Tenant.req Rate_limited
  else begin
    Hashtbl.replace k.copies tg.Tenant.req.Request.id 1;
    Option.iter (fun learn -> learn ~now tg) planes.learn;
    let c =
      match planes.route with
      | Some route -> route ~now tg
      | None -> k.classes.(0)
    in
    push k c tg
  end

let crash k target ~now =
  let live =
    Array.to_list k.classes
    |> List.concat_map (fun c ->
           Array.to_list c.c_slots
           |> List.filter_map (fun s ->
                  if s.sl_active then Some (c, s) else None))
  in
  match live with
  | [] -> ()
  | live ->
    let c, s = List.nth live (target mod List.length live) in
    k.crashes <- k.crashes + 1;
    k.injected <- k.injected + 1;
    requeue k c s;
    c.c_retired <- Shape_cache.stats s.sl_cache :: c.c_retired;
    s.sl_cache <- Shape_cache.create ~capacity:k.cache_capacity;
    s.sl_down_until <- now +. k.faults.Plan.restart_delay;
    s.sl_clock <- Float.max s.sl_clock s.sl_down_until;
    k.makespan <- Float.max k.makespan s.sl_down_until

(* The compile keys of one step. Coalesced batches pad each member to
   its own bucket and launch the bucket's polymerized program per
   member, so k same-signature prefills reuse one compiled program
   whatever k is; uncoalesced batches compile for the bucket of the
   mixed sum, like the baseline scheduler. *)
let launch_shapes k c acts ~btokens =
  let shapes tokens = c.c_engine.Sch.step_shapes ~tokens in
  if k.coalesce then begin
    let prefills = List.filter (fun a -> a.a_prefill > 0) acts in
    let decodes = List.length acts - List.length prefills in
    let buckets =
      List.sort_uniq compare
        (List.map (fun a -> Bucketing.bucket k.bucketing a.a_prefill) prefills)
    in
    List.concat_map shapes buckets
    @ if decodes > 0 then shapes (Bucketing.bucket k.bucketing decodes) else []
  end
  else shapes btokens

(* Program lookup ladder, climbed per launch that misses: replica
   cache, then the class store (stall-free once its publishing compile
   finished by [now]), then an on-path compile that stalls this step and
   publishes class-wide. The replica cache is probed once per shape
   entry: a hit credits every remaining launch of the entry at once. *)
let compile_stall k c s ~now ~btokens =
  let stall = ref 0. in
  List.iter
    (fun (shape, launches) ->
      let rec go n =
        if n > 0 then
          match Shape_cache.find_n s.sl_cache shape n with
          | Some () -> ()
          | None ->
            let ready =
              match Shape_cache.find c.c_store shape with
              | Some at -> at <= now
              | None -> false
            in
            if ready then begin
              c.c_store_hits <- c.c_store_hits + 1;
              Shape_cache.add s.sl_cache shape ()
            end
            else begin
              stall := !stall +. c.c_engine.Sch.compile_seconds shape;
              Shape_cache.add s.sl_cache shape ();
              Shape_cache.add c.c_store shape (now +. !stall)
            end;
            go (n - 1)
      in
      go launches)
    (launch_shapes k c s.sl_act ~btokens);
  !stall

let advance k c s ~fin =
  s.sl_act <-
    List.filter
      (fun a ->
        if a.a_prefill > 0 then begin
          a.a_kv <- a.a_prefill;
          a.a_prefill <- 0;
          true
        end
        else begin
          a.a_kv <- a.a_kv + 1;
          a.a_remaining <- a.a_remaining - 1;
          if Float.is_nan a.a_first then a.a_first <- fin;
          if a.a_remaining = 0 then begin
            let req = a.a_tg.Tenant.req in
            Hashtbl.remove k.running req.Request.id;
            ignore (drop_copy k req);
            count k c a.a_tg (-1);
            let comp =
              {
                Sch.request = req;
                first_token = a.a_first;
                finish = fin;
                replica = s.sl_idx;
              }
            in
            k.completed <- comp :: k.completed;
            c.c_completed <- c.c_completed + 1;
            if slo_met comp then k.met <- k.met + 1;
            set_status k req Completed;
            false
          end
          else true
        end)
      s.sl_act

let step k planes c s ~now =
  (* Admission: pull an offer from the class queue in WFQ order (the
     first grant affinity-restricted when an affinity plane is on), then
     let the Batcher policy rule on it. *)
  let in_flight = List.length s.sl_act in
  let cap = Batcher.max_batch k.batcher - in_flight in
  let offer =
    if cap <= 0 || Wfq.is_empty c.c_q then []
    else
      Wfq.take c.c_q ~max:cap
        ~eligible:(fun tg -> aged_time k c in_flight tg <= now)
        ?first:
          (Option.map
             (fun _ tg -> lead_time k planes c s in_flight tg <= now)
             planes.affinity)
        ~group:(fun leader tg ->
          (not k.coalesce) || signature k leader = signature k tg)
        ()
  in
  (* Cancel-at-grant: a copy whose sibling is already running (or whose
     request already resolved) is discarded before the batcher sees
     it; a duplicate inside one offer keeps only its first copy. An
     offered copy stays in its class's work count until it is
     discarded, shed or completed; deferred copies go back to their
     lane fronts still counted. *)
  let seen = ref [] in
  let fresh, stale =
    List.partition
      (fun (tg : Tenant.tagged) ->
        let id = tg.Tenant.req.Request.id in
        let dup = List.mem id !seen in
        seen := id :: !seen;
        (not dup)
        && (not (Hashtbl.mem k.running id))
        && not (Hashtbl.mem k.statuses id))
      offer
  in
  List.iter
    (fun (tg : Tenant.tagged) ->
      ignore (drop_copy k tg.Tenant.req);
      count k c tg (-1);
      k.cancels <- k.cancels + 1)
    stale;
  let tagged_of (req : Request.t) =
    List.find (fun tg -> tg.Tenant.req.Request.id = req.Request.id) fresh
  in
  let d =
    Batcher.admit k.batcher ~now ~in_flight
      ~waiting:(List.map (fun tg -> tg.Tenant.req) fresh)
  in
  List.iter
    (fun req -> Wfq.push_front c.c_q (tagged_of req))
    (List.rev d.Batcher.deferred);
  List.iter
    (fun (req : Request.t) ->
      (* The batcher shed one copy; the request only resolves as dropped
         when no sibling copy remains in flight. *)
      count k c (tagged_of req) (-1);
      if drop_copy k req <= 0 then set_status k req Dropped
      else k.cancels <- k.cancels + 1)
    d.Batcher.dropped;
  (match offer with
  | leader :: _ when k.coalesce ->
    Option.iter (fun a -> a.claim s leader) planes.affinity;
    let sg = signature k leader in
    if
      List.length offer > 1
      && List.for_all (fun tg -> signature k tg = sg) offer
    then k.coalesced_groups <- k.coalesced_groups + 1
  | _ -> ());
  s.sl_act <-
    s.sl_act
    @ List.map
        (fun (req : Request.t) ->
          Hashtbl.replace k.running req.Request.id ();
          {
            a_tg = tagged_of req;
            a_remaining = req.Request.output_len;
            a_kv = 0;
            a_prefill = req.Request.prompt_len;
            a_first = nan;
          })
        d.Batcher.admitted;
  if s.sl_act = [] then
    (* SLO shedding may have emptied the offer; otherwise nudge the
       clock so an admit-nothing policy step cannot livelock. *)
    s.sl_clock <- (if d.Batcher.dropped <> [] then now else now +. 1e-6)
  else begin
    k.qsamples <- k.qsamples + 1;
    k.qsum <- k.qsum + queued k;
    let tokens =
      List.fold_left
        (fun acc a -> acc + if a.a_prefill > 0 then a.a_prefill else 1)
        0 s.sl_act
    in
    let kv_tokens = List.fold_left (fun acc a -> acc + a.a_kv) 0 s.sl_act in
    let btokens =
      if k.coalesce then
        List.fold_left
          (fun acc a ->
            acc
            + if a.a_prefill > 0 then Bucketing.bucket k.bucketing a.a_prefill
              else 1)
          0 s.sl_act
      else Bucketing.bucket k.bucketing tokens
    in
    k.actual_tokens <- k.actual_tokens + tokens;
    k.padded_tokens <- k.padded_tokens + btokens;
    let stall = compile_stall k c s ~now ~btokens in
    let step_idx = s.sl_step in
    s.sl_step <- s.sl_step + 1;
    let base_slow =
      Plan.step_slowdown k.faults ~replica:s.sl_idx ~step:step_idx
    in
    if base_slow > 1. then k.injected <- k.injected + 1;
    let cls_slow = Plan.class_slowdown k.faults ~cls:c.c_idx ~now in
    if cls_slow > 1. then begin
      k.injected <- k.injected + 1;
      c.c_brownout_steps <- c.c_brownout_steps + 1
    end;
    let slowdown = base_slow *. cls_slow in
    let dt =
      (c.c_engine.Sch.step_seconds ~tokens:btokens ~kv_tokens +. stall)
      *. slowdown
    in
    k.stall_total <- k.stall_total +. stall;
    c.c_stall <- c.c_stall +. stall;
    c.c_service <- c.c_service +. dt;
    c.c_steps <- c.c_steps + 1;
    let fin = now +. dt in
    let fails =
      Plan.class_down k.faults ~cls:c.c_idx ~now
      || Plan.step_fails k.faults ~replica:s.sl_idx ~step:step_idx
    in
    if fails then k.injected <- k.injected + 1;
    let drained =
      match planes.health with
      | Some observe -> observe c ~now:fin ~slowdown ~failed:fails
      | None -> false
    in
    (* A failed step: device time elapses, the work is lost, and the
       batch bounces back to its lanes — unless the health plane already
       drained it elsewhere. *)
    if not fails then advance k c s ~fin
    else if not drained then requeue k c s;
    s.sl_clock <- fin;
    k.makespan <- Float.max k.makespan fin
  end

let run ?learn ?route ?affinity ?health ?hedge ?refresh ?tick k =
  let planes = { learn; route; affinity; health; hedge; refresh; tick } in
  (* Event kinds in tie priority order: a crash preempts the arrival it
     races, arrivals land before the timer planes fire (hedge, then
     warm refresh, then autoscale tick), and replica steps go last so
     they see the freshest queues; equal steps break on class, then
     slot. All fixed, so the interleaving is deterministic. *)
  let timers =
    List.filter_map
      (fun (prio, timer) -> Option.map (fun tm -> (prio, tm)) timer)
      [ (2, planes.hedge); (3, planes.refresh); (4, planes.tick) ]
  in
  let rec loop () =
    let best = ref None in
    let consider time prio event =
      match !best with
      | Some (bt, bp, _) when bt < time || (bt = time && bp <= prio) -> ()
      | _ -> best := Some (time, prio, event)
    in
    (match k.crashes_left with
    | (t, i) :: _ -> consider t 0 (`Crash i)
    | [] -> ());
    (match k.pending with
    | tg :: _ -> consider tg.Tenant.req.Request.arrival 1 `Arrival
    | [] -> ());
    List.iter
      (fun (prio, tm) ->
        match tm.next () with
        | Some t -> consider t prio (`Timer tm)
        | None -> ())
      timers;
    Array.iter
      (fun c ->
        Array.iter
          (fun s ->
            match next_step_time k planes c s with
            | Some t -> consider t 5 (`Step (c, s))
            | None -> ())
          c.c_slots)
      k.classes;
    match !best with
    | None -> ()
    | Some (now, _, event) ->
      k.now <- now;
      (match event with
      | `Crash i ->
        k.crashes_left <- List.tl k.crashes_left;
        crash k i ~now
      | `Arrival ->
        let tg = List.hd k.pending in
        k.pending <- List.tl k.pending;
        arrive k planes tg ~now
      | `Timer tm -> tm.fire ~now
      | `Step (c, s) -> step k planes c s ~now);
      loop ()
  in
  loop ()
