(** Schedule-legality analysis: the YS4xx rule family.

    Dependence-distance reasoning over a kernel's {!Analysis.t} access
    set that statically proves or refutes, per (spec, config, grids)
    candidate:

    - wavefront legality — stagger vs. the stencil's forward reach
      along the streamed dimension (YS400), single input field (YS401);
    - input/output aliasing under a non-pointwise schedule (YS403);
    - halo sufficiency of the caller's grids (YS404);
    - fold/layout agreement (YS405) and fold overflow (YS408);
    - parallel-slice disjointness and coverage (YS406);
    - rank/extent agreement between schedule and grids (YS409).

    Every rule has a dynamic counterpart in the engine's shadow-memory
    sanitizer (YS45x traps): a schedule judged legal here must run
    trap-free, and a schedule rejected here traps when forced through
    the engine with gates disabled. *)

module Analysis := Yasksite_stencil.Analysis
module Config := Yasksite_ecm.Config
module Grid := Yasksite_grid.Grid

val effective_stagger : Analysis.t -> Config.t -> int
(** The per-step plane shift a wavefront schedule will execute with:
    the config's [wavefront_stagger], or the engine default
    (streamed-dimension radius + 1) when unset. *)

val schedule : Analysis.t -> dims:int array -> Config.t -> Diagnostic.t list
(** Judge one candidate config against a kernel and grid extents —
    the grid-free rules (YS400/401/408/409). Halos are assumed static
    (Dirichlet) over a wavefront, as the wavefront engine requires. *)

val wavefront_rules :
  Analysis.t -> dims:int array -> Config.t -> Diagnostic.t list
(** The subset gating an explicit [Wavefront.steps] call: stagger
    (YS400), single field required at any depth (YS401), rank (YS409). *)

val grids :
  ?extend:int array ->
  Analysis.t -> Config.t -> inputs:Grid.t array -> output:Grid.t ->
  Diagnostic.t list
(** Judge concrete grids for one sweep: extent agreement (YS409),
    aliasing (YS403), halo sufficiency (YS404), fold/layout agreement
    (YS405). Structural YS409 failures short-circuit the rest.

    [extend] widens the judged iteration space to [[-ext, dims+ext)]
    per dimension (an {e extended sweep}, used by the program executor
    to compute intermediate stages into their halos): inputs must then
    hold [radius + ext] halo cells and the output [ext] — both reported
    as YS404. *)

val partition :
  dims:int array -> (int array * int array) list -> Diagnostic.t list
(** Check that [[lo, hi)] boxes partition the iteration space [dims]:
    in bounds, pairwise disjoint, and jointly covering (YS406). Used by
    tests only: the static side of the schedule corpus's partition
    cases. *)

val legal : Analysis.t -> dims:int array -> Config.t -> bool
(** [true] iff {!schedule} reports no errors — the predicate the tuner
    and advisor use to prune candidates before scoring or execution. *)

val space :
  Analysis.t -> dims:int array -> Config.t list -> Diagnostic.t list
(** Lint a whole search space; findings deduplicated by (code,
    message). *)

val dedup : Diagnostic.t list -> Diagnostic.t list
(** Drop findings whose (code, message) repeats an earlier one. *)
