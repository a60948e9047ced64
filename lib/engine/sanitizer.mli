(** Shadow-memory sweep sanitizer: the dynamic cross-check of the
    YS4xx schedule-legality analyzer (TSan-style shadow state).

    Each registered grid gets a per-cell shadow record (value version,
    last writer's pool-slice id, wavefront front id). A pass declares
    which version each input holds and which version it produces; every
    engine access is checked against that contract and violations trap
    with the YS45x code mirroring the static rule that should have
    rejected the schedule (the first violation raises {!Trap}):

    - YS450 overlapping writes to one cell within a pass;
    - YS451 read racing a write of the same pass (cross-slice), or an
      order dependence within one wavefront front;
    - YS452 read of a stale version (wavefront skew, aliased in-place
      sweeps);
    - YS453 access outside the allocation (raised before the engine's
      unchecked access runs);
    - YS454 output cells left unwritten by a non-covering partition;
    - YS456 executed layout differs from the scheduled fold.

    No pass writes a halo cell (halos hold Dirichlet values, or
    periodic images refreshed between sweeps, never inside a
    wavefront), so reads of in-allocation halo cells are not
    checked.

    One sanitizer instance covers one virtual address space: grids are
    keyed by base address, so grids from different {!Grid.space}s must
    use different sanitizers. *)

module Grid := Yasksite_grid.Grid

type kind =
  | Overlapping_write
  | Racing_read
  | Stale_read
  | Out_of_bounds
  | Unwritten_cell
  | Fold_mismatch

val code_of_kind : kind -> string
(** The stable YS45x rule code of a trap kind. *)

type trap = {
  kind : kind;
  grid_base : int;  (** base address of the offending grid *)
  coord : int array;  (** grid-relative coordinates, empty if whole-grid *)
  detail : string;
}

exception Trap of trap
(** Raised on the first violation. *)

type t

val create : unit -> t
(** A fresh sanitizer. *)

val register : t -> Grid.t -> unit
(** Start tracking a grid (idempotent — the first registration wins). *)

val grid_version : t -> Grid.t -> int
(** The version the grid currently holds (0 until first written). *)

val fresh_front : t -> int
(** A process-unique wavefront-front id (for {!begin_wavefront_step}). *)

type pass
(** One write phase over one output grid. *)

type slice
(** A pass viewed from one pool slice. *)

val begin_sweep : t -> inputs:Grid.t array -> output:Grid.t -> pass
(** Declare a plain sweep: each input is expected at its current
    version; the output will be produced at its version + 1. *)

val begin_wavefront_step :
  t -> src:Grid.t -> dst:Grid.t -> read_version:int -> front:int -> pass
(** Declare one wavefront step: [src] is expected at exactly
    [read_version]; [dst] is produced at [read_version + 1]. [front]
    tags the writes so later steps of the same front can detect order
    dependences. *)

val slice : pass -> int -> slice

val reader : slice -> Grid.t -> int array -> unit
(** [reader sl g] is a checker closure for reads of [g]; call it with
    the grid-relative coordinates of each read. (Partial application
    resolves the shadow once per region, not per access.) *)

val writer : slice -> int array -> unit
(** Checker for writes of the pass's output grid. *)

val check_fold : fold:int array option -> Grid.t -> unit
(** Trap (YS456) if the schedule's claimed fold does not match the
    grid's layout. *)

val commit_pass : pass -> lo:int array -> hi:int array -> unit
(** Certified fast path: bulk-commit the shadow state a fully checked
    pass would have produced over the interior box [\[lo, hi)] — every
    cell set to the pass's write version, writer slice 0, the pass's
    front id. Called by the engine in place of per-point {!writer}
    updates when a safety certificate proves the plan cannot trap;
    keeps version bookkeeping composing with later checked passes
    ({!end_sweep} coverage included). *)

val end_sweep : pass -> unit
(** Verify every interior output cell was written exactly once (YS454
    for gaps; overlaps already trapped at write time) and commit the
    output's new version. *)

val end_wavefront : t -> final:Grid.t -> other:Grid.t -> final_version:int -> unit
(** Commit the versions the ping-pong pair holds after a wavefront:
    [final] at [final_version], [other] one step behind. *)
