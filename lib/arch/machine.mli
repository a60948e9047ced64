(** Whole-machine model: the analytic counterpart of a testbed node.

    Two presets mirror the paper's testbed — an Intel Cascade Lake SP
    socket and an AMD Rome socket — plus a small generic chip used by the
    test suite. Because we "measure" on a trace-driven simulator rather
    than silicon, {!scaled} shrinks the cache hierarchy (default 8x)
    while keeping bandwidth ratios, core counts and SIMD shape intact;
    experiments shrink their working sets by the same factor, preserving
    every capacity-relative effect the paper studies. *)

type vendor = Intel | Amd | Generic

type overlap =
  | Serial
      (** data transfers through the hierarchy do not overlap; the ECM
          time is [max (T_OL, T_nOL + sum T_data)] (Intel composition) *)
  | Overlapping
      (** transfers at different levels overlap; the ECM time is
          [max (T_OL, T_nOL, T_data_1, ...)] (AMD Zen composition) *)

type simd = {
  dp_lanes : int;  (** doubles per SIMD register (8 = AVX-512, 4 = AVX2) *)
  fma_ports : int;  (** FMA-capable execution ports *)
  add_ports : int;  (** ports usable for non-fused adds *)
  load_ports : int;
  store_ports : int;
}

type t = {
  name : string;
  vendor : vendor;
  freq_ghz : float;
  cores : int;
  simd : simd;
  caches : Cache_level.t array;
      (** innermost (L1) first; each level's [bytes_per_cycle] is the
          per-core bandwidth of the link towards the {e next} (farther)
          level; the last level's link is its memory interface *)
  mem_bw_chip_gbs : float;  (** saturated chip-level memory bandwidth *)
  mem_latency_cycles : float;
  overlap : overlap;
}

val v :
  name:string ->
  vendor:vendor ->
  freq_ghz:float ->
  cores:int ->
  simd:simd ->
  caches:Cache_level.t list ->
  mem_bw_chip_gbs:float ->
  mem_latency_cycles:float ->
  overlap:overlap ->
  t
(** Validating constructor: at least one cache level, monotonically
    non-decreasing capacities, positive frequency/bandwidth. *)

val cascade_lake : t
(** Intel Xeon Gold 6248-class Cascade Lake SP socket: 20 cores, 2.5 GHz,
    AVX-512, 3-level hierarchy, serial ECM composition. *)

val rome : t
(** AMD EPYC 7742-class Rome socket: 64 cores, 2.25 GHz, AVX2, victim L3
    shared per 4-core CCX, overlapping ECM composition. *)

val test_chip : t
(** Tiny 4-core AVX2 machine with KiB-scale caches for fast unit tests. *)

val scaled : ?factor:int -> t -> t
(** [scaled ~factor m] shrinks every cache level's capacity by [factor]
    (default 8) and renames the machine ("name/8"). *)

val line_bytes : t -> int
(** Cache line size (uniform across levels; asserted by [v]). *)

val cycles_per_second : t -> float

val peak_flops_core : t -> float
(** Peak double-precision FLOP/s of one core (FMA counts as 2). *)

val mem_bytes_per_cycle_chip : t -> float
(** Chip memory bandwidth expressed in bytes per core-clock cycle. *)

val last_level : t -> Cache_level.t

val describe : t -> Yasksite_util.Table.t
(** Table of the machine's characteristics (the paper's testbed table). *)
