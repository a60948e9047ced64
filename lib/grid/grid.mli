(** N-dimensional float64 grids with halos and YASK-style folded layouts.

    A grid owns an interior of [dims.(i)] points per dimension plus a halo
    of [halo.(i)] ghost points on each side. Storage is a flat [Bigarray]
    in one of two layouts:

    - {e linear}: row-major with the last dimension contiguous (the layout
      plain C code uses);
    - {e folded}: YASK vector folding — the array is a row-major grid of
      small SIMD blocks ("folds", e.g. 2x2x2 doubles), each stored
      contiguously. Folding changes which cache lines a stencil access
      touches and is one of the tuning dimensions the paper exposes.

    Every grid is assigned a unique range of {e virtual byte addresses} so
    the trace-driven cache simulator sees a realistic, non-aliasing heap
    layout (page-aligned consecutive allocations). *)

type layout =
  | Linear
  | Folded of int array
      (** fold extent per dimension; the product is the SIMD block size *)

val layout_of_fold : int array option -> layout
(** The layout a configuration's optional fold describes: [None] is
    [Linear], [Some f] is [Folded] over a copy of [f]. *)

type t

type space
(** An independent virtual-address allocator. Grids created in the same
    space get disjoint, deterministically staggered address ranges;
    grids in different spaces may alias (they model separate simulated
    heaps). Allocation within a space is atomic, so one space may be
    shared by concurrent domains. *)

val fresh_space : unit -> space
(** A new allocator starting at the canonical first base address. Two
    fresh spaces hand out identical address sequences, which is what
    per-measurement determinism under domain parallelism relies on. *)

val create :
  ?space:space -> ?halo:int array -> ?layout:layout -> dims:int array ->
  unit -> t
(** [create ~dims ()] allocates a zero-filled grid. [dims] must have rank
    1..3 with positive extents; [halo] defaults to all zeros and must
    match the rank; a [Folded] layout must match the rank with positive
    fold extents. Virtual addresses come from [space] (default: one
    process-wide space). *)

val rank : t -> int

val dims : t -> int array
(** Interior extents (copy). *)

val halo : t -> int array

val layout : t -> layout

val length : t -> int
(** Number of allocated elements including halo and fold padding. *)

val base_address : t -> int
(** First virtual byte address of the storage (8 bytes per element). *)

val offset_of : t -> int array -> int
(** [offset_of g idx] maps interior coordinates (each in
    [\[-halo, dim+halo)]) to the flat element offset. Raises
    [Invalid_argument] out of range. *)

val get : t -> int array -> float

val set : t -> int array -> float -> unit

val raw : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The underlying flat storage. Exposed so plan-driven kernels can keep
    their inner loops on direct (inlineable) bigarray accesses; indexing
    it is the caller's responsibility. *)

val unsafe_get_flat : t -> int -> float
(** Direct flat access by element offset; no bounds check. *)

val left_pad : t -> int array
(** Per-dimension left padding (the halo rounded up to a fold boundary):
    the padded coordinate of interior point [x] in dimension [i] is
    [x + (left_pad t).(i)]. *)

val unit_stride : t -> bool
(** Whether consecutive last-dimension coordinates are adjacent in
    storage (true for linear layouts, and for folded layouts whose fold
    is confined to the last dimension). *)

val last_dim_offsets : t -> int array
(** The separable last-dimension contribution to the flat offset: entry
    [c] (a {e padded} last-dimension coordinate, [0 <= c < padded last
    extent]) is the offset added to {!row_base} for that column. The
    identity table for unit-stride layouts. *)

val row_base : t -> int array -> int
(** [row_base g outer] is the flat offset of the row selected by the
    [rank-1] outer interior coordinates (halo range allowed, no bounds
    check beyond rank): for any in-range last coordinate [x],
    [offset_of g [|outer...; x|] =
     row_base g outer + (last_dim_offsets g).(x + (left_pad g).(rank-1))].
    For rank-1 grids [outer] is empty and the result is [0]. *)

val fill : t -> f:(int array -> float) -> unit
(** Set every interior point from its coordinates. *)

val fill_all : t -> float -> unit
(** Set every allocated element (interior, halo and padding). *)

val iter_interior : t -> f:(int array -> unit) -> unit
(** Row-major iteration over interior coordinates. *)

val copy_interior : src:t -> dst:t -> unit
(** Copy interior values; grids must have equal dims (layouts may
    differ). *)

val halo_dirichlet : t -> float -> unit
(** Set all halo points to a constant. *)

val halo_periodic : t -> unit
(** Fill the halo by periodic wrap-around of the interior. Requires
    [halo.(i) <= dims.(i)]. *)

val max_abs_diff : t -> t -> float
(** Max absolute interior difference; dims must match. *)

val l2_norm : t -> float
(** Euclidean norm over the interior. Used by tests only: the l2 norm
    test. *)

val footprint_bytes : t -> int
(** Allocated bytes (8 * {!length}). *)
