(** Kernel autotuning: analytic (model-ranked, the YaskSite approach)
    versus empirical (run every candidate, the baseline it replaces),
    with cost accounting for the paper's tuning-cost comparison.

    The analytic tuner never executes a kernel: it ranks the whole
    parameter space with the ECM model and returns the top
    configuration. The empirical tuner executes every candidate on the
    simulated machine and picks the best measured one. Their cost ratio
    and the quality gap of the analytic choice are the subject of
    experiment E9.

    The empirical tuner additionally survives an injected fault plan
    ({!Yasksite_faults.Plan}): failed candidate runs are retried with
    decorrelated-jitter backoff under a per-pass wall budget, noisy measurements are aggregated by median-of-k with
    MAD-based outlier rejection, candidates that exhaust their retries
    are skipped (and recorded), the sweep degrades to analytic ranking
    when too many candidates die, and per-candidate progress can be
    checkpointed so an interrupted sweep resumes without re-running
    completed work (experiment E14). With the default (fault-free) plan
    and policy it is behaviourally identical to the pre-resilience
    tuner: same chosen configuration, same kernel-run count, bit-equal
    measured performance. *)

type skipped = {
  s_config : Yasksite_ecm.Config.t;
  s_reason : string;  (** why the candidate was abandoned *)
  s_attempts : int;  (** attempts spent before giving up *)
}

type result = {
  chosen : Yasksite_ecm.Config.t;
  predicted_lups : float option;
      (** the model's score for [chosen] (None for a successful
          empirical tune; Some for analytic and degraded results) *)
  measured_lups : float;
      (** validation measurement of [chosen] at full thread count (the
          model's prediction if [chosen] was never measured on a
          degraded sweep) *)
  model_evaluations : int;  (** analytic work performed *)
  kernel_runs : int;  (** kernels executed (incl. the validation run) *)
  attempts : int;  (** measurement attempts including retried failures *)
  skipped : skipped list;
      (** candidates abandoned after exhausting retries or budgets *)
  pruned : int;
      (** candidates removed by the schedule-legality analyzer
          ({!Yasksite_lint.Lint.Schedule}) before any model evaluation or
          kernel execution was spent on them *)
  degraded : bool;
      (** the empirical sweep fell back to analytic ranking because the
          failure rate exceeded the policy's threshold *)
  wall_seconds : float;
      (** elapsed time of the whole tuning pass (on the empirical
          tuner's [?clock], wall time by default), including charged
          backoff time *)
}

val tune_analytic :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Spec.t ->
  dims:int array ->
  threads:int ->
  result
(** Rank the full advisor space with the ECM model, then run one
    unsanitized validation measurement of the winner. Its
    [wall_seconds] is wall time.

    Candidates the schedule-legality analyzer rejects are pruned before
    ranking (reported in [result.pruned]); if the whole space is
    illegal, the analyzer's diagnostics are raised as
    {!Yasksite_lint.Lint.Gate_error}. *)

val tune_empirical :
  ?space:Yasksite_ecm.Config.t list ->
  ?faults:Yasksite_faults.Plan.t ->
  ?policy:Yasksite_faults.Policy.t ->
  ?clock:Yasksite_util.Clock.t ->
  ?checkpoint:string ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  ?cache:Yasksite_ecm.Cache.t ->
  ?sanitize:bool ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Spec.t ->
  dims:int array ->
  threads:int ->
  result
(** Execute every configuration of [space] (default: the same advisor
    space the analytic tuner ranks) and keep the best measured one.
    Statically illegal candidates are pruned by the schedule-legality
    analyzer before any kernel runs (counted in [result.pruned]; an
    all-illegal space raises {!Yasksite_lint.Lint.Gate_error}), and
    [sanitize] (default [false]) measures every surviving candidate
    with [Measure.stencil_sweep ~sanitize:true], which certifies the
    tuple first and, once certified, skips the per-point shadow
    checks.

    [faults] (default {!Yasksite_faults.Plan.none}) injects seeded
    transient failures, lognormal measurement noise and contention
    outliers into each run; [policy] (default
    {!Yasksite_faults.Policy.default}) bounds retries and the pass
    budget and sets how many repeats are aggregated. [checkpoint] names a file
    that is rewritten after every candidate and, when present and
    matching this sweep's identity, resumed from — completed candidates
    are not re-run. Without an explicit [checkpoint], [store] persists
    the same checkpoint (same text format, same sweep-identity key)
    into a {!Yasksite_store.Store} under namespace ["ckpt-v1"], so an
    interrupted `yasksite tune` resumes from the machine-wide store; a
    degraded store silently yields a non-resumable (but otherwise
    identical) sweep. All behaviour is a deterministic function of the
    inputs and [faults.seed]; the [clock] only feeds wall-time
    accounting and budget enforcement.

    Every candidate draws its faults and backoff jitter from streams
    derived from [faults.seed] by candidate {e index}, so with [pool]
    the candidates are evaluated concurrently and still select the
    same configuration, measured LUP/s, attempts and skip list as the
    sequential sweep (property-tested; [wall_seconds] naturally
    differs). One caveat: the pass budget is enforced at candidate
    granularity under a pool — each candidate's start time is checked
    against the deadline on the real clock, candidates that start run
    to completion (where a sequential sweep would truncate one
    mid-flight), and once one candidate misses the deadline it and all
    later candidates are reported as budget skips. With non-binding
    budgets the two paths are bit-identical. A [pool]ed sweep requires a domain-safe [clock]
    (the default system clock is). [cache] (default: a fresh cache
    for this call) memoizes the analytic fallback's model
    evaluations. *)

type comparison = {
  analytic : result;
  empirical : result;
  cost_ratio : float;
      (** empirical kernel-runs per analytic kernel-run (>= 1 when the
          model pays off) *)
  wall_ratio : float;  (** empirical wall time / analytic wall time *)
  quality : float;
      (** measured performance of the analytic choice relative to the
          empirical optimum (1.0 = found the same optimum) *)
}

val compare_strategies :
  ?space:Yasksite_ecm.Config.t list ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Spec.t ->
  dims:int array ->
  threads:int ->
  comparison
(** Run both tuners on the same kernel, fault-free, and summarise the
    trade-off. Both run on one domain. *)
