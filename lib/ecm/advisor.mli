(** Analytic parameter selection: the heart of YaskSite's pitch.

    Enumerates the tuning space (spatial blocks x vector folds x
    wavefront depths) and ranks every configuration with the ECM model
    alone — no kernel is ever executed. An external tuner (Offsite) can
    call {!best} per kernel and trust the ranking. *)

val space :
  Yasksite_arch.Machine.t -> dims:int array -> threads:int -> rank:int ->
  Config.t list
(** The cross product, at a fixed thread count, of the spatial blocks
    (unblocked plus power-of-two blockings of the non-streamed
    dimensions), the vector folds (linear plus every factorization of
    the machine's SIMD width over the grid dimensions) and the temporal
    options (wavefront depths 1, 2, 4 and 8; streaming stores at depth
    1 only). *)

val best :
  ?filter:(Config.t -> bool) ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  threads:int ->
  Config.t * Model.prediction
(** Configuration with the highest predicted chip performance, with its
    prediction: the head of {!rank_all}, uncached and on one domain.
    Ties break towards simpler configurations (earlier in the
    enumeration). *)

val rank_all :
  ?cache:Cache.t ->
  ?pool:Yasksite_util.Pool.t ->
  ?filter:(Config.t -> bool) ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  threads:int ->
  (Config.t * Model.prediction) list
(** Every configuration with its prediction, best first. Model
    evaluations go through [cache] when given (memoized across calls)
    and are spread over [pool]'s domains when given; both leave the
    result exactly equal to the sequential, uncached ranking.

    [filter] is applied to the enumerated space {e before} any model
    evaluation — the schedule-legality hook. The lint layer sits above
    this library, so callers inject the predicate (typically
    [Lint.Schedule.legal]); candidates it rejects are never scored. *)

type partition = {
  inline : string list;
      (** stages substituted into their consumers (not materialized) *)
  stages : int;  (** stage count after fusion *)
  time : float;  (** predicted seconds per program execution *)
  stage_times : (string * float) list;
      (** per-stage predicted seconds, one entry per surviving stage *)
}

val rank_partitions :
  ?cache:Cache.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Program.t ->
  dims:int array ->
  config:Config.t ->
  partition list
(** ECM ranking of a program's fuse/materialize partitions, fastest
    first. Each stage of each candidate is priced as its extended sweep
    — [prod (dims + 2*ext)] lattice updates at the model's predicted
    chip LUP/s for the (possibly fused) stage expression — capturing
    both sides of the trade-off: materializing pays extra sweeps over
    extended extents, fusing pays recomputation and denser reads per
    point. Every partition is semantically legal: fusion preserves
    outputs bit-for-bit, and it never {e increases} the accumulated
    input-halo requirement (per-stage halo boxes over-approximate
    anisotropic consumer chains, and inlining removes that rounding),
    so grids sized for the fully-materialized plan satisfy every
    partition and ranking is purely a performance question.

    Fusion choices cannot interact across connected components, so
    each component is scored on a program of its own stages, once per
    subset of its [k] inlinable stages, and the stage predictions are
    memoized across identical read tables, expressions and extensions.
    The full product space is composed arithmetically: the ranking over
    all [2^n] partitions is exact while only [sum 2^k_i] sub-programs
    are fused and priced.

    Partitions are enumerated with the first component varying
    fastest; each one's time is the sum of its stage times in
    component order. A stable sort on those times keeps enumeration
    order among ties, and at most the first 4096 entries are kept.

    Raises [Invalid_argument] on a cyclic or non-closed program, or
    when [dims] does not match the program rank. *)

val best_partition :
  ?cache:Cache.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Program.t ->
  dims:int array ->
  config:Config.t ->
  partition
(** Head of {!rank_partitions}: the first predicted-fastest partition in
    enumeration order, scored as {!rank_partitions} scores it but with
    only its own record built. *)
