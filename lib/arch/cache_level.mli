(** Description of one level of a CPU cache hierarchy.

    Sizes and associativity drive both the analytic layer-condition
    analysis (ECM) and the trace-driven cache simulator; the transfer
    bandwidth drives the per-level data-transfer terms of the ECM model. *)

type fill_policy =
  | Inclusive  (** fills propagate into this level on a miss below it *)
  | Victim
      (** exclusive / victim cache: filled only by evictions from the
          level above (AMD-Rome-style L3) *)

type t = {
  name : string;  (** e.g. "L1", "L2", "L3" *)
  size_bytes : int;  (** capacity visible to one core's accesses *)
  assoc : int;  (** set associativity *)
  line_bytes : int;  (** cache line size *)
  shared_by : int;  (** number of cores sharing this level (1 = private) *)
  bytes_per_cycle : float;
      (** sustained transfer bandwidth between this level and the level
          above it (towards the core), per core, in bytes per cycle *)
  latency_cycles : float;
      (** access latency (informational: throughput-oriented streaming
          kernels hide it behind prefetch; reserved for latency-bound
          extensions) *)
  fill : fill_policy;
}

val v :
  name:string ->
  size_bytes:int ->
  assoc:int ->
  ?line_bytes:int ->
  ?shared_by:int ->
  bytes_per_cycle:float ->
  latency_cycles:float ->
  ?fill:fill_policy ->
  unit ->
  t
(** Constructor with validation: sizes positive, size divisible by
    [assoc * line_bytes]. Defaults: 64-byte lines, private, inclusive. *)

val lines : t -> int
(** Total number of lines. Used by tests only: the cache-level tests
    check geometry with it. *)

val scale : factor:int -> t -> t
(** [scale ~factor l] divides the capacity by [factor] (keeping line size
    and associativity, reducing the number of sets); used to shrink real
    machines to simulation scale. *)

val pp : Format.formatter -> t -> unit
