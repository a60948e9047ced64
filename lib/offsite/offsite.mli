(** The Offsite pipeline: enumerate implementation variants of an
    explicit ODE method over a stencil-RHS PDE, obtain a per-kernel
    performance prediction from YaskSite's ECM model (optionally with
    analytically tuned kernel configurations), rank the variants, and
    validate the ranking against measurements — the paper's integration
    experiment. *)

type candidate = {
  variant : Variant.t;
  tuned : bool;  (** kernel configs chosen by the analytic advisor *)
  configs : (string * Yasksite_ecm.Config.t) list;  (** per kernel label *)
  predicted_step_seconds : float;
  measured_step_seconds : float;
}

val evaluate :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t ->
  h:float ->
  threads:int ->
  candidate list
(** All four candidates ({unfused, fused} x {naive, tuned}), sorted by
    predicted time, fastest first. A candidate's per-step time is the
    sum over its kernels of grid points divided by (predicted resp.
    measured) chip LUP/s. A tuned candidate runs each kernel at the
    best wavefront-free configuration of the analytic advisor
    ({!best_static_config}); a naive one at the default (unblocked,
    linear) configuration.

    Measurement reuse: within one call, each distinct pair of a kernel
    (its rank, field count and expression; not its name) and a
    configuration is measured once, and every candidate that runs it
    reuses that measurement. The reuse is scoped to the call: no
    measurement outlives it, so a second call measures afresh. The
    measurement is a pure function of that pair, so reuse never
    changes a result.

    ECM model evaluations are memoized in [cache] (default: a fresh
    cache for this call) — variants share kernels, so repeated rankings
    hit, and a cache passed to several calls carries its entries across
    them; candidates are scored on [pool]'s domains when given, sharing
    the call's measurements; [store] additionally persists per-kernel
    tuning memos (see {!best_static_config}). None of the three changes
    the result. *)

val evaluate_mixed :
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t ->
  h:float ->
  threads:int ->
  candidate list
(** Like {!evaluate} but over the full per-stage fusion-mask space
    ({!Variant.all_mixed}) x {naive, tuned} — the richer variant set the
    real Offsite enumerates (2^s x 2 candidates for an s-stage
    method), on a fresh model cache, one domain and no store. The
    measurement reuse of {!evaluate} spans all of the call's
    candidates. *)

type quality = {
  kendall : float;  (** rank correlation predicted vs measured times *)
  top1 : bool;  (** did the prediction select the measured-fastest? *)
  speedup_selected : float;
      (** measured time of the baseline (unfused naive) over measured
          time of the predicted-best candidate *)
  selected_gap : float;
      (** how much slower the predicted-best runs than the true measured
          optimum (0 = the prediction found the optimum) *)
  mean_abs_error : float;  (** mean |pred - meas| / meas over candidates *)
}

val quality : candidate list -> quality
(** Ranking quality of an {!evaluate} result (>= 2 candidates). *)

type method_choice = {
  tableau : Yasksite_ode.Tableau.t;
  candidate : candidate;  (** the method's best implementation variant *)
  h_stable : float;  (** stability-limited step size on this problem *)
  predicted_time_per_unit : float;
      (** predicted seconds of compute per simulated second *)
  measured_time_per_unit : float;
}

val spectral_radius : Yasksite_ode.Pde.t -> float
(** Dominant |eigenvalue| of the (linearised) right-hand side, estimated
    by power iteration on the flat-vector view — for heat-type problems
    this approaches [4 d alpha / dx^2]. *)

val rank_methods :
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t list ->
  threads:int ->
  method_choice list
(** Offsite's cross-method selection for a parabolic problem: for each
    explicit method, take its stability-limited step size (real-axis
    stability interval over the discrete Laplacian's spectral radius),
    pick its best implementation variant by prediction, and rank the
    methods by predicted compute time per simulated second. Sorted by
    prediction, best first. The measurement reuse of {!evaluate} spans
    all of the call's methods (every method applies the same
    right-hand-side kernel), and ends with the call. *)

type accuracy_choice = {
  tableau_a : Yasksite_ode.Tableau.t;
  candidate_a : candidate;  (** best implementation variant *)
  steps : int;  (** steps needed to meet the tolerance *)
  h_used : float;
  achieved_error : float;
      (** max-norm time-integration error vs a fine reference *)
  predicted_seconds : float;  (** predicted compute time for the run *)
  measured_seconds : float;
}

val rank_methods_at_accuracy :
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t list ->
  t_end:float ->
  tol:float ->
  threads:int ->
  accuracy_choice list
(** The full Offsite question: cheapest way to integrate the problem to
    [t_end] within time-integration error [tol]. For each method the
    step count starts at the stability limit and doubles until the error
    against a fine DOPRI5 reference (on the same spatial grid, so spatial
    error cancels) meets the tolerance; the cost is steps times the best
    variant's per-step time. Sorted by predicted cost, best first.
    Intended for moderate grids (the calibration integrates the real
    problem). Measurements are reused across the call's methods, as in
    {!rank_methods}. *)

val best_static_config :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  threads:int ->
  Yasksite_ecm.Config.t
(** Best advisor configuration with temporal blocking disabled —
    RK data flow re-reads stages, so wavefronts across steps do not
    apply to ODE kernels. The ranking is deterministic in (machine,
    kernel, dims, threads), so [store] memoizes the winner (namespace
    ["offsite-v1"]): a warm start skips the whole ranking pass. A memo
    that fails to decode or that the schedule analyzer refutes is
    ignored and recomputed — a degraded store can cost time, never
    change the configuration. *)
