(** Formatting helpers for the units used across the tool chain:
    floating-point throughput (GF/s), data volumes and bandwidths. *)

val bytes : int -> string
(** Human-readable byte count, e.g. [49152 -> "48 KiB"]. *)

val gflops : float -> string
(** Input in FLOP/s, rendered as GF/s. *)

val gbs : float -> string
(** Input in bytes/s, rendered as GB/s (decimal GB). *)
