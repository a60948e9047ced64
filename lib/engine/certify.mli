(** Certification pipeline: prove one (plan × layout × halo × blocking)
    tuple safe and record it in the process-local {!Cert} store; a new
    process certifies again, which costs less than a disk round trip.

    Certification has two halves. The {e static} half runs the YS5xx
    plan verifier ({!Yasksite_lint.Plan_lint.check}) against the
    caller's concrete grids — bounds, stack safety, dead code,
    count agreement with {!Yasksite_stencil.Analysis}. The {e dynamic}
    half (YS511) cross-validates the certified traffic counts against a
    trace-driven execution: a tiny proxy sweep with the same layout,
    halo and blocking runs against a cache hierarchy and the issued
    loads/stores must equal [points] times the plan's loads/stores per
    point. Only a plan passing both halves earns
    a certificate; certified plans select the unchecked sanitizer fast
    path in {!Sweep.run} and {!Wavefront.steps}. *)

module Grid := Yasksite_grid.Grid
module Machine := Yasksite_arch.Machine
module Spec := Yasksite_stencil.Spec
module Plan := Yasksite_stencil.Plan
module Config := Yasksite_ecm.Config
module Diagnostic := Yasksite_lint.Diagnostic

val validate_traffic :
  ?machine:Machine.t ->
  Spec.t ->
  plan:Plan.t ->
  config:Config.t ->
  Diagnostic.t list
(** The dynamic half alone: run the proxy traced sweep and return YS511
    errors where the observed traffic disagrees with the certified
    per-point counts (empty list = agreement). [machine] defaults to
    the scaled test chip — the simulator counts issued accesses
    regardless of hits, so the model only affects proxy cost. *)

val certify :
  ?machine:Machine.t ->
  ?plan:Plan.t ->
  Spec.t ->
  inputs:Grid.t array ->
  output:Grid.t ->
  config:Config.t ->
  (Cert.entry, Diagnostic.t list) result
(** Run both halves for [spec]'s plan ([plan] overrides the lowering,
    for callers that already hold it) against the given grids' layouts
    and halos and [config]'s blocking. [Ok entry] means the certificate
    was inserted into the store; [Error ds] carries every static and
    dynamic diagnostic that blocked it. *)

val ensure :
  ?machine:Machine.t ->
  ?plan:Plan.t ->
  Spec.t ->
  inputs:Grid.t array ->
  output:Grid.t ->
  config:Config.t ->
  bool
(** [true] iff the tuple's certificate is already in the store or
    {!certify} just earned one. *)
