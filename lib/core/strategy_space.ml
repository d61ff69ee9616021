(* Analytic strategy-space pruning (Vortex-style hierarchization): derive,
   per (kernel set, shape), which candidates are *hardware-valid and
   non-dominated* before anything is scored. Everything here is a sound
   under-approximation of the Eq.-2 cost — a pruned candidate provably
   cannot beat the incumbent, including on the tie-break — so the pruned
   and unpruned searches choose bit-identical programs
   ({!Selfcheck.check_prune} is the oracle for that claim). *)

let ceil_div a b = (a + b - 1) / b

(* ---- Wave-aligned cut derivation (hardware-valid tile hierarchies) ----

   Cut candidates along one axis for a pinned primary kernel: positions
   [q·tile] such that the primary strip of [q] tile rows fills exactly a
   whole number of waves (walked from the largest feasible strip down, the
   way the Section 6 case study carves 3072 of 4096 rows), plus the
   maximal full-tile cut. This is already a dominance filter among cuts:
   of all cuts landing inside the same wave count, only the largest
   survives — any smaller one has the same wave count for the primary
   strip but strictly more remainder work, so it can never win under the
   monotone Eq.-2 bound. *)
let axis_cuts ?(style = `Wave_aligned) ~tile ~other_tile ~cap ~axis_len
    ~other_len ~max_cuts () =
  let q_full = axis_len / tile in
  if q_full < 1 then []
  else if style = `Remainder_only then begin
    let cut = q_full * tile in
    if cut > 0 && cut < axis_len then [ cut ] else []
  end
  else begin
    let tiles_other = ceil_div other_len other_tile in
    let full_waves = ceil_div (q_full * tiles_other) cap in
    let acc = ref [] and count = ref 0 in
    (* The walk visits q values in non-increasing order, so a duplicate
       can only equal the most recent cut — one comparison replaces the
       O(cuts) membership scan of the old [List.mem] dedupe. *)
    let last_added = ref max_int in
    let add q =
      if q >= 1 && q <= q_full then begin
        let cut = q * tile in
        if cut > 0 && cut < axis_len && cut < !last_added then begin
          acc := cut :: !acc;
          last_added := cut;
          incr count
        end
      end
    in
    add q_full;
    (* Walk wave boundaries downward; each step strictly shrinks q, so the
       loop runs at most max_cuts iterations. *)
    let w = ref (full_waves - 1) in
    let continue = ref true in
    while !continue && !w >= 1 && !count < max_cuts do
      let q = !w * cap / tiles_other in
      if q < 1 then continue := false
      else begin
        add q;
        w := min (!w - 1) (ceil_div (q * tiles_other) cap - 1)
      end
    done;
    List.rev !acc
  end

let row_cuts ?style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  axis_cuts ?style ~tile:e.desc.um ~other_tile:e.desc.un ~cap:e.wave_capacity
    ~axis_len:rows ~other_len:cols ~max_cuts ()

let col_cuts ?style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  axis_cuts ?style ~tile:e.desc.un ~other_tile:e.desc.um ~cap:e.wave_capacity
    ~axis_len:cols ~other_len:rows ~max_cuts ()

(* ---- Kernel dominance skeleton ----

   Entry [d] dominates entry [e] under Eq.-2 Full scoring when, for every
   region extent, [cost d <= cost e] *and* [d] wins any resulting tie.
   The shape-independent part: [um_d >= um_e] and [un_d >= un_e] give
   [d] no more tiles on any extent, [cap_d >= cap_e] then gives no more
   waves, and [rank_d < rank_e] settles ties (the search's total
   tie-break key orders equal costs by kernel rank, and the dominator's
   is strictly smaller). The K-dependent part — [f_pipe d <= f_pipe e] —
   is checked per search by {!view}. The skeleton is cached per kernel
   set (physical equality on the entries array, which the
   [Kernel_set.create] memo makes stable per (hardware, config)). *)
type skeleton = {
  sk_n : int;
  sk_dominators : int array array;
      (** for each entry index, the indices of its candidate dominators *)
}

let skeleton_of_entries (entries : Kernel_set.entry array) =
  let n = Array.length entries in
  let sk_dominators =
    Array.init n (fun i ->
        let e = entries.(i) in
        let acc = ref [] in
        for j = n - 1 downto 0 do
          let d = entries.(j) in
          if
            j <> i && d.rank < e.rank && d.desc.um >= e.desc.um
            && d.desc.un >= e.desc.un
            && d.wave_capacity >= e.wave_capacity
          then acc := j :: !acc
        done;
        Array.of_list !acc)
  in
  { sk_n = n; sk_dominators }

let cache : (Kernel_set.entry array * skeleton) list ref = ref []

let cache_bound = 16

let skeleton (set : Kernel_set.t) =
  let key = set.entries in
  match List.find_opt (fun (k, _) -> k == key) !cache with
  | Some (_, sk) -> sk
  | None ->
    let sk = skeleton_of_entries key in
    let kept =
      if List.length !cache >= cache_bound then
        List.filteri (fun i _ -> i < cache_bound - 1) !cache
      else !cache
    in
    cache := (key, sk) :: kept;
    sk

(* ---- Per-search view: live mask and pipeline-depth floors ---- *)

type view = {
  live : bool array;
  n_live : int;
  min_pipe : float;  (** smallest [f_pipe] in the set for this K *)
  vol_rate : float;
      (** min over entries of [pipe / (um·un·cap)] — the best possible
          cycles-per-output-element rate any kernel can reach *)
  v_launch : float;  (** per-region launch term in cycles (0 if disabled) *)
}

let view sk (set : Kernel_set.t) ~pipe ~launch =
  if Array.length pipe <> sk.sk_n then
    invalid_arg "Strategy_space.view: pipe array does not match skeleton";
  let live = Array.make sk.sk_n true in
  let n_live = ref sk.sk_n in
  for i = 0 to sk.sk_n - 1 do
    if Array.exists (fun j -> pipe.(j) <= pipe.(i)) sk.sk_dominators.(i) then begin
      live.(i) <- false;
      decr n_live
    end
  done;
  let min_pipe = ref infinity and vol_rate = ref infinity in
  for i = 0 to sk.sk_n - 1 do
    let e = set.entries.(i) in
    if pipe.(i) < !min_pipe then min_pipe := pipe.(i);
    let r =
      pipe.(i) /. float_of_int (e.desc.um * e.desc.un * e.wave_capacity)
    in
    if r < !vol_rate then vol_rate := r
  done;
  { live; n_live = !n_live; min_pipe = !min_pipe; vol_rate = !vol_rate;
    v_launch = launch }

(* Pipeline-depth floor for a region: every kernel runs at least one wave
   (cost >= min_pipe) and needs at least [ceil(rows/um)·ceil(cols/un)/cap
   >= rows·cols/(um·un·cap)] waves of [pipe] cycles each (cost >=
   area·vol_rate). Both bounds hold for every kernel in the set, so their
   max plus the launch term lower-bounds the cost of the region under any
   fill — the quantity the search may add per unscored free region when
   deciding, before scoring, that a candidate cannot beat the bound. *)
let region_floor v ~icount ~rows ~cols =
  Float.max v.min_pipe
    (float_of_int icount *. float_of_int rows *. float_of_int cols
   *. v.vol_rate)
  +. v.v_launch
