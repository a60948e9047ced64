(** Temporal (wavefront) blocking: executing several timesteps in one
    pass over memory.

    Two grids are used in ping-pong fashion; [wavefront] timestep fronts
    travel along the outermost dimension, staggered by [radius + 1]
    planes so that a plane being overwritten for step [t+1] is never
    still needed by the trailing front of step [t] (the classic two-grid
    wavefront of Wellein et al., which is also what YASK's temporal
    tiling implements). When the moving window of active planes fits in
    the last-level cache, memory traffic drops by about the wavefront
    depth — the effect the ECM temporal model predicts.

    Restrictions: single-input-field stencils, and halos must be static
    over the blocked steps (Dirichlet boundaries); these are the same
    conditions under which YASK applies temporal tiling without MPI halo
    re-exchange. *)

val steps :
  ?plan:Yasksite_stencil.Plan.t ->
  ?trace:Yasksite_cachesim.Hierarchy.t ->
  ?sanitize:Sanitizer.t ->
  ?check:bool ->
  ?config:Yasksite_ecm.Config.t ->
  ?vec_unit:int array ->
  Yasksite_stencil.Spec.t ->
  a:Yasksite_grid.Grid.t ->
  b:Yasksite_grid.Grid.t ->
  steps:int ->
  Yasksite_grid.Grid.t * Sweep.stats
(** [steps spec ~a ~b ~steps] advances the state in [a] by [steps]
    timesteps using wavefront depth [config.wavefront] (1 = plane-by-
    plane, equivalent to consecutive sweeps) and returns the grid holding
    the final state ([a] if [steps] is even, [b] otherwise) along with
    accumulated work stats. Every step updates the whole interior,
    plane by plane along the streamed dimension. Both grids must share
    dims and have halos covering the stencil radius; halos of {e both}
    grids must be pre-filled and are kept static. Every plane runs on
    the plan interpreter.

    The per-step plane shift is the config's [wavefront_stagger] when
    set (the engine-safe default is radius+1). [check] (default [true])
    gates the schedule through {!Yasksite_lint.Schedule_lint} — stagger
    legality (YS400), single input field (YS401), halo/alias/extent
    agreement of both grids — raising [Lint.Gate_error] on violations;
    [sanitize] shadow-checks every access, so an illegal stagger forced
    through with [~check:false] traps on its first stale or same-front
    read. *)
