(** Descriptive statistics and comparison metrics used throughout the
    experiment harness. All functions raise [Invalid_argument] on empty
    input unless stated otherwise. *)

val mean : float array -> float

type welford
(** One-pass (Welford) accumulator for streaming mean and variance.
    Numerically stable: no catastrophic cancellation for samples with a
    large common offset, unlike the naive sum-of-squares formula. *)

val welford_create : unit -> welford

val welford_add : welford -> float -> unit

val welford_mean : welford -> float
(** Raises [Invalid_argument] on an empty accumulator. *)

val welford_variance : welford -> float
(** Sample variance (n-1 denominator); 0 for singletons. Raises
    [Invalid_argument] on an empty accumulator. *)

val welford_stddev : welford -> float

val median : float array -> float

val mad : float array -> float
(** Median absolute deviation (raw, unscaled): the median of
    [|x - median|]. Multiply by 1.4826 for a normal-consistent scale
    estimate. *)

val percentile : float array -> p:float -> float
(** Linear-interpolation percentile, [p] in [\[0, 100\]]. *)

val minimum : float array -> float

val maximum : float array -> float

val rel_error : predicted:float -> measured:float -> float
(** [(predicted - measured) / measured]; signed. [measured] must be
    non-zero. *)

val abs_rel_error : predicted:float -> measured:float -> float
(** Absolute value of {!rel_error}. *)

val kendall_tau : float array -> float array -> float
(** Kendall rank-correlation coefficient (tau-a) between two equal-length
    score vectors; 1.0 means identical ranking, -1.0 reversed. Arrays must
    have equal length >= 2. *)

val top1_agrees : better_is_lower:bool -> float array -> float array -> bool
(** Whether both score vectors select the same best index. *)
