(** Analytic strategy-space pruning (hardware-aware hierarchization).

    The online search's candidate space is the product of patterns,
    primary kernels and wave-aligned cuts. Most of it can be ruled out
    analytically, before any candidate is scored, from three sound
    facts about the monotone Eq.-2 cost:

    - {b wave-capacity divisibility}: only cuts landing on wave
      boundaries of the pinned kernel can win ({!axis_cuts} — of all
      cuts inside one wave count, only the largest survives, since the
      smaller ones keep the primary strip's wave count and strictly
      grow the remainder);
    - {b kernel dominance}: a kernel whose tiles, wave capacity and
      pipeline cost are all no better than another's (and whose rank
      loses the tie-break) can never appear in a winning program
      ({!skeleton} + {!view});
    - {b pipeline-depth floors}: any region costs at least one wave of
      the cheapest pipeline, and at least its output volume at the best
      cycles-per-element rate in the set ({!region_floor}) — so a
      candidate whose pinned regions plus floored free regions already
      exceed an {e achievable} bound strictly can be skipped unscored.

    All three preserve the search's total tie-break order, so pruned
    and unpruned searches choose bit-identical programs
    ([Selfcheck.check_prune] verifies exactly that). The filters are
    only applied under the plain [Model Full] scorer: calibrated
    corrections and ablated objectives break the cross-kernel
    monotonicity the proofs lean on, and the simulator oracle is not
    Eq.-2 at all. *)

val axis_cuts :
  ?style:[ `Wave_aligned | `Remainder_only ] -> tile:int -> other_tile:int ->
  cap:int -> axis_len:int -> other_len:int -> max_cuts:int -> unit -> int list
(** Wave-aligned cut positions (multiples of [tile], largest first in
    wave-count order, at most [max_cuts]). [`Remainder_only] keeps just
    the maximal full-tile cut. *)

val row_cuts :
  ?style:[ `Wave_aligned | `Remainder_only ] -> Kernel_set.entry -> rows:int ->
  cols:int -> max_cuts:int -> int list

val col_cuts :
  ?style:[ `Wave_aligned | `Remainder_only ] -> Kernel_set.entry -> rows:int ->
  cols:int -> max_cuts:int -> int list

type skeleton
(** The K-independent half of kernel dominance for one kernel set: for
    each entry, the entries with tiles, wave capacity {e and} rank all
    at least as good. Cached per kernel set, in an unlocked cache: call
    it from one domain ([Polymerize.search_batch] builds its views
    before its parallel region). *)

val skeleton : Kernel_set.t -> skeleton

type view = {
  live : bool array;
      (** [live.(i)] — entry [i] is not dominated for this K and may
          appear in a winning program *)
  n_live : int;
  min_pipe : float;
  vol_rate : float;
  v_launch : float;
}

val view : skeleton -> Kernel_set.t -> pipe:float array -> launch:float -> view
(** Finish the dominance check with this search's per-entry [f_pipe]
    values ([pipe.(i)] for entry [i]; the reduction extent is fixed per
    compile) and compute the floor ingredients. [launch] is the
    per-region launch term in cycles (0 when disabled). *)

val region_floor : view -> icount:int -> rows:int -> cols:int -> float
(** Sound lower bound on the Eq.-2 cost of a [rows×cols] region
    (with [icount] batched instances) under {e any} kernel in the set,
    launch term included. *)
