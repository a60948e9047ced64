(** Lowering stencils to kernel plans and binding plans to grids.

    [lower] turns a [Spec.t] into a layout-independent {!Plan.t}:
    constant folding, then the folded tree as postfix code in its own
    operation order, with every operator subtree that occurs more than
    once computed the first time only and recalled from a temporary
    after — value-preserving down to the bit, since a shared subtree's
    value is the one each occurrence would compute.
    [bind] specialises a plan to concrete grids: per-access row-base
    tables and last-dimension offset tables, so the engine evaluates a
    row a chunk of points at a time without per-point dispatch. A
    [bound] is immutable and can be shared across pool slices; each
    slice allocates its own {!driver} for mutable scratch. *)

val lower : Spec.t -> Plan.t
(** Lower a spec (resolved or not — unresolved coefficients become
    {!Plan.Sym} instructions, refused only by {!check}). Equal subtrees
    of the folded tree (constants compared bit for bit, as
    {!Expr.equal} does) are one node; an operator node reached a second
    time is a {!Plan.Recall} of the {!Plan.Save} its first evaluation
    made, and leaves are pushed again. Never raises on a validated
    spec. *)

val fingerprint : Spec.t -> string
(** [(lower spec).fingerprint] — the stable content-addressed kernel
    digest (spec name excluded) used by the ECM cache, tuner
    checkpoints and Offsite memoization. It digests the folded tree and
    does not build the DAG, so it costs what it cost before plans had
    temporaries and keeps its bytes. *)

val check :
  Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> unit
(** Structural validation: input count equals [n_fields], every grid
    (and the output) has the plan's rank, each input's halo covers the
    accesses to it, no {!Plan.Sym} remains, and the code is safe on the
    driver's unchecked stack and temporary rows: every load names an
    access-table slot, no instruction pops an empty stack, the stack
    never grows past the declared [depth], exactly one value remains,
    and every temporary named lies below the declared [temps], is saved
    once and recalled only after its save. Raises
    [Invalid_argument] with a ["Lower: ..."] message; a symbolic plan
    gets ["Lower: unresolved coefficient <name>"]. *)

type bound
(** A plan specialised to concrete grids: precomputed flat row bases,
    last-dimension offset tables and raw storage handles. Immutable. *)

val bind :
  Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> bound
(** {!check}, then precompute the addressing tables. *)

val plan_of : bound -> Plan.t

val bound_to :
  bound -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> bool
(** [bound_to b ~inputs ~output] holds iff [b] was bound to exactly
    these grids: [output] is physically the bound's output, and each
    access slot's grid is physically [inputs.(field)]. A bound used with
    any other grids would address memory through tables made for
    different extents and halos. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type raw = {
  r_slot_data : farr array;  (** per-slot raw storage *)
  r_slot_tab : int array array;  (** per-slot last-dimension tables *)
  r_out_data : farr;
  r_out_tab : int array;
}
(** The bound's addressing handles, exposed so a generated kernel
    ({!Codegen}) can be driven with the same storage and tables the
    interpreter uses — which is what makes the two bit-identical. *)

val raw_of : bound -> raw

type driver
(** Per-region mutable scratch over a shared {!bound} (slot row bases,
    coordinate scratch, the row-wide evaluation stack and a row per
    temporary). Not thread-safe; allocate one per concurrent region. *)

val driver : bound -> driver

val set_row : driver -> int array -> unit
(** [set_row drv outer] positions the driver on the row selected by the
    [rank - 1] leading interior coordinates (empty for rank 1):
    computes every slot's and the output's flat row base. *)

val driver_row : driver -> int array
(** The driver's per-slot flat row bases (the array {!set_row} fills;
    stable across calls — read, never mutate). *)

val driver_out_row : driver -> int
(** The output row base of the row selected by the last {!set_row}. *)

val out_addr : driver -> int -> int
(** Virtual byte address of the output point at [x] (for tracing). *)

val read_addr : driver -> int -> int -> int
(** [read_addr drv slot x]: virtual byte address of access-table entry
    [slot] at [x], in the plan's canonical access order. *)

val store_row : driver -> int -> int -> unit
(** [store_row drv xb xe]: evaluate and store every point of the
    current row with [xb <= x < xe]. The row is evaluated a chunk of
    points at a time: each postfix instruction runs over the whole
    chunk before the next, and every operation of the expression tree
    gets the same values in the same order (a shared subtree's once,
    its value copied from its temporary row wherever it recurs), so the
    stored values are bit-identical to it. No bounds checks: the
    caller must have gated the region (legal interior regions are
    always safe because grid left padding covers the halo), and an
    instrumented caller issues each point's checks and trace events
    before the call. *)

val eval_row : driver -> int -> int -> float array -> int -> unit
(** [eval_row drv xb xe dst pos]: the values {!store_row} would store
    at [xb <= x < xe], written to [dst.(pos + x - xb)] instead of the
    output grid. *)
