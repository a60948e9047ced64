(** Topological executor for stencil programs.

    Runs a {!Yasksite_stencil.Program} — a DAG of named stages — as a
    sequence of {!Sweep}s in dependency order, materializing one
    intermediate grid per stage. Each intermediate is allocated with a
    halo equal to the stage's accumulated {e extension}
    ({!Yasksite_stencil.Program.halo_plan}) and computed as an extended
    sweep over [[-ext, dims+ext)], so every consumer finds the
    off-centre cells it reads already valid — no halo exchange runs
    between stages.

    Both sweep backends execute programs, and (like single sweeps)
    produce bit-identical outputs; fusing stages with
    {!Yasksite_stencil.Program.fuse} before running preserves outputs
    bit-for-bit as well, because the inlined expression replays the
    producer's arithmetic tree in the same IEEE evaluation order the
    materialized stage used. *)

type stage_run = {
  stage : string;
  stats : Sweep.stats;
      (** work counters for this stage's (possibly extended) sweep *)
}

type result = {
  outputs : (string * Yasksite_grid.Grid.t) list;
      (** the program's declared outputs, in declaration order *)
  stages : stage_run list;  (** per-stage stats, in execution order *)
}

val run :
  ?pool:Yasksite_util.Pool.t ->
  ?backend:Sweep.backend ->
  ?config:Yasksite_ecm.Config.t ->
  ?space:Yasksite_grid.Grid.space ->
  Yasksite_stencil.Program.t ->
  inputs:(string * Yasksite_grid.Grid.t) list ->
  result
(** [run p ~inputs] executes every stage of [p] in topological order.
    [inputs] supplies one grid per program input (halos set by the
    caller); all grids must share one [dims] and use the layout the
    [config]'s fold describes (default {!Yasksite_ecm.Config.default},
    linear). Intermediates are allocated in [space] (default the global
    space) with that same layout — pass the space the input grids live
    in when it is not the global one, since virtual addresses from
    different spaces may overlap and the aliasing gate (YS403) would
    then reject a perfectly disjoint run.

    Every run gates on the full program lint
    ({!Yasksite_lint.Lint.Program}: the YS7xx DAG rules, per-stage
    kernel rules, and the YS704 halo-sufficiency judgement of the
    supplied grids), and each stage's sweep keeps its own schedule
    gate. Raises [Lint.Gate_error] on lint errors (a cyclic or
    non-closed program, a missing or too-thin input grid), and
    [Invalid_argument] on empty [inputs] for a program that declares
    none.

    [pool], [backend] (default [Plan_backend]) and [config] are passed
    through to every stage's {!Sweep.run}; pooled execution keeps the
    sequential bit-identity guarantee stage by stage. *)
