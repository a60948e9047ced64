(** Resilience policy: how hard the tuner fights back against the fault
    plan — retry caps, the pass budget, and how many noisy measurements
    are aggregated. The backoff shape, the outlier cut-off and the
    degradation threshold are fixed constants. *)

type t = {
  max_attempts : int;  (** per-sample retry cap (>= 1; 1 = no retry) *)
  pass_budget_s : float;  (** wall budget for the whole sweep *)
  repeats : int;  (** measurement repeats per candidate (median-of-k) *)
}

val v : ?max_attempts:int -> ?pass_budget_s:float -> ?repeats:int -> unit -> t
(** Constructor with validation. Defaults: 3 attempts, unbounded pass
    budget, 1 repeat. *)

val default : t

val base_backoff_s : float
(** First backoff delay and lower bound of every delay: 0.05 s. *)

val max_backoff_s : float
(** Backoff cap: 5 s. *)

val degrade_threshold : float
(** Fraction of exhausted candidates above which the tuner falls back
    to analytic ranking: 0.5. *)

val backoff : rng:Yasksite_util.Prng.t -> prev:float -> float
(** Next backoff delay with decorrelated jitter: uniform in
    [\[base_backoff_s, 3 * prev\]], capped at {!max_backoff_s}. *)

val robust_combine : float array -> float
(** Median of the samples within 3.5 (normal-consistent) MADs of the
    median (singletons pass through; a zero MAD short-circuits to the
    median). Raises [Invalid_argument] on an empty sample set. *)
