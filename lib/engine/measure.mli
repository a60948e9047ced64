(** Measurement harness: the stand-in for running a kernel on real
    silicon and reading hardware counters.

    One representative core's partition of the sweep is executed through
    the trace-driven cache simulator (with shared levels scaled to their
    per-core share), giving {e observed} per-boundary traffic, and the
    executed work stats (vector units including remainders, loop starts,
    block entries) are billed with the machine's port model plus loop
    overheads, giving {e observed} in-core cycles. The two are composed
    like on the real machine (serial or overlapping), and chip-level
    performance applies a bandwidth-contention throttle at the memory
    interface.

    The analytic ECM model ({!Yasksite_ecm.Model}) never sees any of
    these observations — prediction error in the experiments is earned:
    conflict misses, remainder loops, block overheads, halo effects and
    gradual saturation all diverge from the model's idealisations. *)

type t = {
  config : Yasksite_ecm.Config.t;
  cycles_per_cl : float;  (** measured single-core cy/CL *)
  t_incore_ol : float;  (** billed arithmetic cycles per CL *)
  t_incore_nol : float;  (** billed L1 load/store cycles per CL *)
  t_data : float array;  (** observed transfer cycles per CL, per boundary *)
  lines_per_cl : float array;  (** observed traffic per CL, per boundary *)
  mem_bytes_per_lup : float;
  lups_core : float;  (** single-core LUP/s *)
  lups_chip : float;  (** LUP/s at [config.threads] with contention *)
  flops_chip : float;
  sim_points : int;  (** lattice updates actually simulated *)
}

val stencil_sweep :
  ?sanitize:bool ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Spec.t ->
  dims:int array ->
  config:Yasksite_ecm.Config.t ->
  t
(** Measure the steady-state sweep performance of [spec] (coefficients
    must be resolved) at the given grid size and configuration: builds
    the grids in the configured layout, runs a warm-up pass, then
    measures one ping-pong pass (or one wavefront pass of the configured
    depth). Only the representative core's slice is simulated, so the
    cost is independent of the thread count. The sweeps run on the
    plan interpreter: both backends issue the same trace, so a
    backend would change only the harness's own speed.

    [sanitize] (default [false]) runs the measurement under a fresh
    fail-fast shadow-memory {!Sanitizer}, and a legal schedule
    measures identically (the shadow pass never changes values). It
    first tries to certify the tuple ({!Certify.ensure}, on tiny proxy
    grids). A certified measurement, the usual case for a legal
    schedule, sweeps on the certified fast path: the per-point shadow
    checks are skipped, and the certificate's static bounds proof and
    traced cross-validation stand in for them. Only an uncertifiable
    tuple is checked access by access, where a violation raises
    {!Sanitizer.Trap} instead of silently measuring garbage. To check
    every access of a schedule, sweep it directly with {!Sweep.run} or
    {!Wavefront.steps} and a fresh {!Sanitizer}, without certifying. *)

val lups_at_threads :
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Spec.t ->
  dims:int array ->
  config:Yasksite_ecm.Config.t ->
  threads:int ->
  float
(** Convenience: measured chip LUP/s with the config's thread count
    overridden. *)
