(** The Execution–Cache–Memory performance model: YaskSite's analytic
    predictor. Composes the in-core terms ({!Incore}) with the per-level
    data-transfer terms derived from layer conditions ({!Lc}) according
    to the machine's overlap policy, then scales across cores with
    memory-bandwidth saturation — all without running the kernel. *)

type prediction = {
  config : Config.t;
  incore : Incore.t;
  boundaries : Lc.boundary array;
  t_data : float array;  (** cy/CL per cache boundary (memory last) *)
  t_ecm : float;  (** single-core cycles per cache line of output *)
  cy_per_lup : float;  (** single-core cycles per lattice update *)
  lups_single : float;  (** single-core performance, LUP/s *)
  mem_bytes_per_lup : float;
      (** memory traffic per update (wavefront-reduced if applicable) *)
  lups_saturated : float;
      (** chip-level memory-bandwidth ceiling in LUP/s; [infinity] when
          the working set fits in cache *)
  saturation_cores : int;
      (** smallest core count reaching the ceiling (clamped to the
          machine's core count) *)
  lups_chip : float;  (** predicted LUP/s at [config.threads] cores *)
  flops_chip : float;  (** corresponding FLOP/s *)
}

val predict :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  prediction
(** Evaluate the full model for one configuration. The in-core terms
    and the layer-condition stage ({!Lc.stage}) are computed once; the
    saturation search then evaluates only the boundaries at each core
    count n until n times the per-core performance reaches the memory
    ceiling. That product is not monotone in n (a shrinking
    shared-cache share can break a layer condition), so the search is
    linear and finds the first crossing. It starts at the in-core
    bound: T_ECM is at least max(T_OL, T_nOL) at every n, so the counts
    below the first n whose in-core performance times n reaches the
    ceiling are skipped without evaluating their boundaries. *)

val chip_scaling :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  max_threads:int ->
  (int * float) array
(** Predicted chip performance (LUP/s) for 1..[max_threads] cores: at
    each count n, the [lups_chip] that {!predict} gives for the config
    at n threads. One stage serves every count; only the boundaries are
    re-evaluated, because shared-cache capacity per core shrinks as
    threads are added. *)

val summary : prediction -> string
(** One-line rendering: ECM decomposition and headline numbers. *)

val explain :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  prediction ->
  string
(** Multi-line report of how the prediction was built: instruction mix
    and port pressure, per-boundary layer conditions with the working
    sets that decided them, composition rule, and the multicore scaling
    summary (the kerncraft-style "show your work" output). *)
