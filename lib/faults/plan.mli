(** Deterministic fault plan: what can go wrong during one kernel run,
    and with which probability. All randomness derives from the plan's
    seed through {!Yasksite_util.Prng}, never from the global [Random]
    state — equal seeds yield bit-identical fault sequences. *)

type t = {
  seed : int;  (** master seed of the fault stream *)
  fail_rate : float;  (** per-run transient-failure probability *)
  timeout_rate : float;  (** per-run probability of a simulated hang *)
  timeout_s : float;  (** wall cost charged for a timed-out run *)
  noise_sigma : float;
      (** sigma of the multiplicative lognormal measurement jitter *)
  outlier_rate : float;
      (** probability of a co-runner contention spike on a surviving run *)
  outlier_factor : float;  (** slowdown factor of such a spike (>= 1) *)
}

val v :
  ?seed:int ->
  ?fail_rate:float ->
  ?timeout_rate:float ->
  ?timeout_s:float ->
  ?noise_sigma:float ->
  ?outlier_rate:float ->
  ?outlier_factor:float ->
  unit ->
  t
(** Constructor with validation: rates in [0, 1], non-negative sigma and
    timeout, [outlier_factor >= 1]. Defaults are all-zero (no faults,
    seed 42). *)

val none : t
(** The all-zero plan: every run succeeds, noise-free. *)

val is_benign : t -> bool
(** No failure modes and no noise: the injector is a guaranteed
    pass-through ([Run 1.0] forever). *)

val describe : t -> string

(** Outcome of one injected kernel run. *)
type outcome =
  | Run of float
      (** run succeeds; measured time is multiplied by this slowdown
          factor (1.0 = clean) *)
  | Transient_failure  (** the run crashed; retryable *)
  | Timeout of float  (** the run hung; charge this many seconds *)

type injector
(** Mutable fault stream (seeded PRNG plus counters). *)

val injector : ?rng:Yasksite_util.Prng.t -> t -> injector
(** Fresh injector; the stream is derived from [plan.seed] unless an
    explicit [rng] is supplied. *)

val injector_at : t -> index:int -> injector
(** [injector_at plan ~index] is the injector for the [index]-th
    consumer (a tuning candidate, say): its stream is the [index]-th
    sequential split of the plan seed, computed in O(1) without shared
    state, so a given consumer draws identical outcomes whether
    consumers are processed in order or concurrently. *)

val draw : injector -> outcome
(** Next outcome of the fault stream. *)

val draws : injector -> int
(** Total outcomes drawn. Used by tests only: the fault-rate tests. *)

val faults : injector -> int
(** Drawn outcomes that were failures or timeouts. Used by tests only:
    the fault-rate tests. *)
