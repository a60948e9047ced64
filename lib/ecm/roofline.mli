(** The naive Roofline model: the baseline the ECM model is measured
    against in the ablation experiments.

    Roofline predicts [min(peak_flops, bandwidth * intensity)] using only
    the optimal code balance — it knows nothing about cache-level
    transfer times, layer conditions, blocking or folding, so its
    predictions are configuration-independent and systematically
    optimistic for cache-unfriendly configurations. Comparing its error
    against the ECM model's (experiment E11) quantifies what the paper's
    analytic machinery actually buys. *)

type prediction = {
  flops_bound : float;  (** in-core ceiling, FLOP/s (chip) *)
  memory_bound : float;  (** bandwidth ceiling, FLOP/s (chip) *)
  lups_chip : float;  (** min of the two ceilings, in LUP/s *)
  lups_single : float;  (** single-core estimate with one core's share *)
}

val predict :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  threads:int ->
  prediction
(** Classic Roofline with optimal code balance as intensity. A kernel
    with zero flops (pure copy) is treated as bandwidth-bound. *)
