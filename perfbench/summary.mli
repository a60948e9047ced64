(** Summaries of per-op samples; an empty sample gives 0. *)

val median : float array -> float

val p90 : float array -> float
(** 90th percentile, interpolated linearly between order statistics.
    Ten samples lie beyond it only from 100 samples on. *)

val medians : (string * float) list list -> (string * float) list
(** Per key, the median over rows; a row without the key counts 0.
    Keys come out sorted. *)
