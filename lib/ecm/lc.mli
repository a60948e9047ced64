(** Layer-condition analysis: analytic prediction of the data traffic a
    stencil sweep moves across each cache boundary, as a function of grid
    size, spatial block sizes and vector folding.

    For a 3D stencil streamed along the outer (z) dimension inside a
    (by, bx) block column, reuse across z requires the accessed z-layer
    span of every field to stay cached ("3D layer condition"); failing
    that, reuse across y requires the accessed rows to stay cached ("2D
    layer condition"); failing both, every distinct (z, y) offset group
    of a field fetches its lines separately. Vector folding merges
    offsets that fall into the same fold block, reducing the number of
    distinct groups — YASK's motivation for multi-dimensional folds. *)

type condition =
  | All_fits  (** whole working set resident: no steady-state traffic *)
  | Outer_reuse  (** 3D LC holds (plane reuse) — minimal traffic *)
  | Row_reuse  (** only the 2D LC holds (row reuse) *)
  | No_reuse  (** every offset group misses *)

type boundary = {
  level_name : string;
  condition : condition;
  lines_per_cl : float;
      (** cache lines crossing this boundary per cache line of output
          (i.e. per [lups_per_cl] updates); includes write-allocate and
          write-back of the output *)
  bytes_per_lup : float;
}

val safety : float
(** Fraction of a cache level the layer condition may occupy (0.5, the
    standard LC safety factor). *)

type stage
(** Everything the layer conditions read except the thread count: each
    read field's offset spans and fold-group counts, the working sets
    the 3D and 2D conditions compare against a level's budget, the read
    lines each condition implies, the footprint and the bytes of the
    wavefront's moving window. Only a level's per-core share of its
    capacity depends on the thread count, so one stage serves every
    core count exactly. *)

val stage :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  stage
(** Reads every field of [config] except [threads]. Raises
    [Invalid_argument] when [dims], the block or the fold does not match
    the kernel's rank. *)

val at : stage -> threads:int -> boundary array * float
(** The boundaries at [threads] cores, innermost (L1 <-> L2) first and
    the memory boundary last, and the memory traffic per lattice update
    after the wavefront reduction, which applies while the wavefront's
    window fits the last-level share. Each shared level's capacity
    divides among [min threads shared_by] cores. *)

val boundaries :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  boundary array
(** [fst (at (stage m a ~dims ~config) ~threads:config.threads)]: one
    entry per cache boundary, innermost (L1 <-> L2) first; the last
    entry is the memory boundary. The configured thread count
    determines each shared level's effective per-core capacity. Used by
    tests only: the layer-condition properties read the boundaries. *)

val mem_bytes_per_lup :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  float
(** [snd (at (stage m a ~dims ~config) ~threads:config.threads)]:
    memory-boundary traffic per lattice update, after applying the
    temporal-blocking reduction of the configured wavefront depth (if
    its working set fits the last-level cache; otherwise the wavefront
    brings no reduction). Used by tests only: the wavefront-reduction
    properties read it. *)

val wavefront_fits :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  bool
(** Whether the configured wavefront's moving window fits 70% of the
    last-level cache share at [config.threads] cores — the validity
    condition for the temporal-blocking traffic reduction, evaluated on
    [stage m a ~dims ~config]. Always true for [wavefront = 1], without
    staging (so without checking [dims]). *)
