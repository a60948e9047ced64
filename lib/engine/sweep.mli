(** One stencil sweep over a grid: the execution substrate standing in
    for a YASK-generated kernel.

    The sweep applies the configured schedule — spatial blocking of the
    non-streamed dimensions with the outermost dimension streamed inside
    each block column — and can feed every memory access it performs into
    a {!Yasksite_cachesim.Hierarchy}, which is how "measurements" are
    taken. Results are bit-identical across schedules (verified by the
    property tests): blocking, folding and tracing change only the order
    and observation of operations, never values.

    Two execution {!type-backend}s share this schedule. The default
    [Plan_backend] binds the stencil's kernel plan
    ({!Yasksite_stencil.Lower}) to the grids once and evaluates each row
    block with one row call, a chunk of points per dispatch;
    [Codegen_backend] runs a natively compiled specialization of the
    plan ({!Yasksite_stencil.Codegen} emitted, {!Native} built and
    cached), falling back to the plan interpreter with a one-line
    warning whenever a kernel cannot be resolved (no toolchain, rejected
    or unsupported plan, failed compile). Both backends produce
    bit-identical output grids, traces and sanitizer verdicts (the plan
    driver supplies addressing throughout, and traced or sanitized runs
    issue each point's checks and accesses before the row call;
    property-tested against an independent tree-walking evaluator) — including when driven
    stage-by-stage by the {!Prog} executor over a multi-stage stencil
    program, under every fusion partition. *)

type stats = {
  points : int;  (** lattice updates performed *)
  vec_units : int;
      (** SIMD work units executed, counting fold-padding waste and
          remainder blocks (what the in-core cycle accounting bills) *)
  rows : int;  (** innermost-loop entries (loop start overhead) *)
  blocks : int;  (** block-column entries *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats

type backend = Plan_backend | Codegen_backend

val backend_of_string : string -> (backend, string) result
(** Parse a backend name (case-insensitive, whitespace-trimmed). The
    error is a one-line message listing the legal backends — used for
    eager validation of [YASKSITE_BACKEND] and the CLI's [--backend]. *)

val default_backend : unit -> backend
(** The backend used when none is passed explicitly. Precedence:
    the {!set_default_backend} override (the CLI applies [--backend]
    through it) beats the [YASKSITE_BACKEND] environment variable,
    which beats the built-in plan default. Raises [Invalid_argument]
    with the {!backend_of_string} message on an unrecognised
    environment value — eagerly, at the first consultation. *)

val set_default_backend : backend -> unit
(** Process-wide override of the environment default (the CLI's
    [--backend] flag). *)

val clear_default_backend : unit -> unit
(** Drop the {!set_default_backend} override, restoring environment
    precedence. Used by tests only: the backend precedence tests. *)

val backend_name : backend -> string
(** ["plan"] or ["codegen"]. Used by tests only: the backend tests
    label and compare backends by name. *)

val run :
  ?pool:Yasksite_util.Pool.t ->
  ?backend:backend ->
  ?plan:Yasksite_stencil.Plan.t ->
  ?trace:Yasksite_cachesim.Hierarchy.t ->
  ?sanitize:Sanitizer.t ->
  ?check:bool ->
  ?config:Yasksite_ecm.Config.t ->
  ?vec_unit:int array ->
  ?extend:int array ->
  Yasksite_stencil.Spec.t ->
  inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t ->
  stats
(** [run spec ~inputs ~output] computes one sweep over the interior of
    [output] (whose dims must equal every input's dims). Halos of the
    inputs must have been set by the caller. The output grid may use a
    different layout than the inputs. When [trace] is given, every read
    and the write of each update is issued to the hierarchy in program
    order. The config's [fold] describes the layout the {e caller} gave
    the grids; it does not relayout them. [vec_unit] is the SIMD
    work-unit shape used for [vec_units] accounting (default: the
    config's fold extents; a linear-layout kernel on an 8-lane machine
    would pass [\[|1;1;8|\]]).

    [backend] selects the execution backend (default
    {!default_backend}). [plan] supplies an already-lowered kernel plan
    (callers that sweep repeatedly lower once; lowered on demand when
    absent). The sweep always binds the plan to [inputs] and [output],
    the grids the gate below checks.

    With [pool], the sweep is split along the blocked dimension at
    block boundaries and slices run on the pool's domains. Output
    values and the returned stats are bit-identical to the sequential
    sweep (slices write disjoint regions and cover the same loop
    structure; one bound is shared across slices). A traced sweep
    ignores [pool] and runs on one domain: the hierarchy is one core's
    view of the sweep in program order, so its counts are exactly the
    sequential sweep's. Unblocked configs have one block column and run
    sequentially: spatial blocking is what creates the parallelism.

    [check] (default [true]) runs the schedule-legality gate
    ({!Yasksite_lint.Schedule_lint.grids}: halo sufficiency, aliasing,
    layout and extent agreement) before touching memory, raising
    [Lint.Gate_error] on violations. [sanitize] threads every access
    through a shadow-memory {!Sanitizer} pass — pass [~check:false]
    with a sanitizer to demonstrate dynamically why a gated schedule is
    illegal.

    A sanitized, gate-checked sweep whose (plan × layout × halo ×
    blocking) tuple holds a safety certificate (see {!Cert} and
    {!Certify}) runs the {e certified fast path}: per-point shadow
    checks are skipped and the pass's shadow state is bulk-committed
    ({!Sanitizer.commit_pass}), recovering the sanitizer's overhead at
    zero traps while keeping version bookkeeping composable.
    Uncertified plans, [~check:false] runs, and runs under
    [YASKSITE_NO_CERT] keep the fully checked path.

    [extend] runs an {e extended sweep}: the iteration space widens to
    [[-ext.(i), dims.(i)+ext.(i))] per dimension, with the extension
    living in the grids' halos. The program executor uses this to
    compute intermediate stages into their halos so consumer stages
    can read them off-centre without a separate halo exchange. The
    gate then requires input halos of [radius + ext] and an output
    halo of at least [ext] (YS404). Extended sweeps keep the pool
    bit-identity guarantee (slices partition the extended extent at
    the same block boundaries the sequential sweep uses) but do not
    combine with [sanitize] — that combination raises
    [Invalid_argument], since the shadow pass models interior writes
    only. *)

val run_region :
  ?backend:backend ->
  ?bound:Yasksite_stencil.Lower.bound ->
  ?trace:Yasksite_cachesim.Hierarchy.t ->
  ?sanitize:Sanitizer.slice ->
  ?check:bool ->
  ?config:Yasksite_ecm.Config.t ->
  ?vec_unit:int array ->
  ?extend:int array ->
  Yasksite_stencil.Spec.t ->
  inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t ->
  lo:int array ->
  hi:int array ->
  stats
(** Like {!run} but restricted to the half-open interior box
    [\[lo, hi)] — the building block for thread partitions and
    wavefronts. [check] (default [true]) verifies the region stays
    inside the iteration space and the extents agree, raising
    [Lint.Gate_error] (YS406/YS409) otherwise; [sanitize] is one
    slice's view of an enclosing sanitizer pass. Each row block is
    checked whole before it is evaluated, so a trap leaves that row
    block of [output] unwritten. [extend] widens the
    legal region to [[-ext, dims+ext)] (see {!run}); a checked
    extended region additionally passes the full grids gate, proving
    the halos can hold the extension.

    [bound] reuses a plan already bound to these grids (the wavefront
    driver binds each ping-pong direction once for all its planes). It
    must have been made for exactly [inputs] and [output]
    ({!Yasksite_stencil.Lower.bound_to}); any other bound raises
    [Invalid_argument], whatever [check] says. *)
