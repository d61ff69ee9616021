(* Host clock, span recorder and sample statistics shared by the
   benchmark phases.

   Spans are recorded only from the benchmark's own code, around calls
   into the public APIs of the layers under test and around the engine
   closures it hands to the serving loops. Every span kind keeps exact
   aggregates (count, total and self nanoseconds, where self time is the
   span's duration minus the durations of its direct children); the
   first [keep_cap] spans are also kept verbatim in memory and written
   as a Chrome trace_event file when the run ends. With tracing off a
   span is a single branch around the call. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Run [f] and return its result with its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* --- Spans --------------------------------------------------------- *)

let tracing = ref false

type kind = int

let kind_names : string array ref = ref [||]

let kind_count = ref [||]

let kind_total = ref [||]

let kind_self = ref [||]

let kind name =
  let k = Array.length !kind_names in
  kind_names := Array.append !kind_names [| name |];
  kind_count := Array.append !kind_count [| 0 |];
  kind_total := Array.append !kind_total [| 0L |];
  kind_self := Array.append !kind_self [| 0L |];
  k

type frame = {
  f_id : int;
  f_kind : kind;
  f_start : int64;
  mutable f_child : int64;
}

let stack : frame list ref = ref []

let next_id = ref 0

let keep_cap = 20_000

(* Kept spans: id, parent id, kind, start, duration. *)
let kept : (int * int * kind * int64 * int64) array =
  Array.make keep_cap (0, 0, 0, 0L, 0L)

let n_kept = ref 0

let n_spans = ref 0

let t_origin = now_ns ()

let close fr =
  let dur = Int64.sub (now_ns ()) fr.f_start in
  let parent =
    match !stack with
    | _ :: (p :: _ as rest) ->
      p.f_child <- Int64.add p.f_child dur;
      stack := rest;
      p.f_id
    | _ ->
      stack := [];
      -1
  in
  let k = fr.f_kind in
  !kind_count.(k) <- !kind_count.(k) + 1;
  !kind_total.(k) <- Int64.add !kind_total.(k) dur;
  !kind_self.(k) <- Int64.add !kind_self.(k) (Int64.sub dur fr.f_child);
  incr n_spans;
  if !n_kept < keep_cap then begin
    kept.(!n_kept) <- (fr.f_id, parent, k, fr.f_start, dur);
    incr n_kept
  end

let span k f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let fr = { f_id = !next_id; f_kind = k; f_start = now_ns (); f_child = 0L } in
    stack := fr :: !stack;
    match f () with
    | v ->
      close fr;
      v
    | exception e ->
      close fr;
      raise e
  end

let reset_spans () =
  n_kept := 0;
  n_spans := 0;
  Array.fill !kind_count 0 (Array.length !kind_count) 0;
  Array.fill !kind_total 0 (Array.length !kind_total) 0L;
  Array.fill !kind_self 0 (Array.length !kind_self) 0L

let count k = !kind_count.(k)

let total_s k = Int64.to_float !kind_total.(k) *. 1e-9

let self_s k = Int64.to_float !kind_self.(k) *. 1e-9

(* Chrome trace_event JSON of the kept spans (load it in
   chrome://tracing or Perfetto). *)
let write_trace path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to !n_kept - 1 do
    let id, parent, k, start, dur = kept.(i) in
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
      (if i = 0 then "" else ",")
      !kind_names.(k)
      (Int64.to_float (Int64.sub start t_origin) *. 1e-3)
      (Int64.to_float dur *. 1e-3) id parent
  done;
  Printf.fprintf oc "],\"otherData\":{\"spans\":%d,\"kept\":%d}}\n" !n_spans
    !n_kept;
  close_out oc

(* --- Statistics ---------------------------------------------------- *)

let ratio a b = if b = 0. then 0. else a /. b

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- Host speed ----------------------------------------------------- *)

(* A fixed single-domain mix of the kinds of work the layers under test
   do — allocation, hashing, list sorting, float arithmetic — that does
   not call into the program under test. *)
let reference_work () =
  let h = Hashtbl.create 16 in
  let acc = ref 0. in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 10007) (float_of_int i);
    acc := !acc +. sqrt (float_of_int i)
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> i * 48271 mod 65521)) in
  let kept = List.fold_left (fun m x -> if x mod 3 = 0 then x :: m else m) [] l in
  ignore (Sys.opaque_identity (!acc, kept, Hashtbl.length h))

let reference_nominal_s = 0.005

let reference_samples = ref []

let scale = ref 1.

(* Called just before a measurement: time the reference work once, set
   {!scale} from it, then collect the heap (the reference work's garbage
   with it), so the measurement starts from a collected heap. On a
   shared host, speed drifts by tens of percent within seconds with
   other tenants' load, and the reference work, run next to the
   measurement, drifts with it (their pass-by-pass correlation is about
   0.85). *)
let settle () =
  let (), dt = timed reference_work in
  reference_samples := dt :: !reference_samples;
  scale := reference_nominal_s /. dt;
  Gc.full_major ()

(* [dt] host seconds measured since the last {!settle},
   scaled to a reference-speed host: one on which the reference work
   takes [reference_nominal_s]. *)
let scaled dt = dt *. !scale

(* The run's median scale, for aggregates that span many measurements
   (the traced span totals). *)
let run_scale () =
  Mikpoly_util.Stats.median (List.map (fun dt -> reference_nominal_s /. dt) !reference_samples)
