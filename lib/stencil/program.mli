(** Stencil programs: multi-stage pipelines as DAGs of named stages
    over named fields.

    A program generalises a single {!Spec} kernel to the multi-stage
    pipelines real applications sweep (the absinthe horizontal
    diffusion: Laplacian, two limited fluxes, output — per advected
    field). Each {!stage} computes one field from named fields at
    constant offsets; fields are either {e program inputs} (grids the
    caller supplies) or {e earlier stages} (intermediates the executor
    materializes). Dependencies are explicit in each stage's [reads],
    and the program must form a DAG — {!issues} reports violations with
    typed values the lint layer maps to stable YS7xx codes.

    {2 Halo accumulation}

    A consumer reading a producer at offset [k] needs the producer
    computed [k] cells past its own extent. {!halo_plan} propagates
    this requirement backwards along every path: each stage's
    {e extension} [ext(s)] is the maximum over its consumers [c] of
    [ext(c) + radius(c reads s)], with output stages at extension 0.
    The executor materializes stage [s] with halo [ext(s)] and sweeps
    it as an {e extended sweep} over [[-ext, dims+ext)]; program inputs
    must arrive with halo [ext + radius] (gated as YS404/YS704).

    {2 Fusion}

    {!fuse} inlines producer stages into their consumers — the
    substitution widens halos and replays the producer's arithmetic
    once per consuming offset, trading redundant FLOPs for the skipped
    round trip of an intermediate through the memory hierarchy (the
    classic stencil-fusion trade-off the ECM model can price).
    {!partitions} enumerates the legal fuse/materialize choices;
    every partition computes bit-identical outputs (property-tested:
    inlining substitutes the producer's expression verbatim, and each
    backend evaluates the same real-arithmetic tree). *)

type stage = {
  name : string;  (** the field this stage computes *)
  reads : string array;
      (** stage-local field table: [reads.(i)] names the field behind
          {!Expr.access} index [i] in [expr] *)
  expr : Expr.t;  (** the stencil body, fields indexed into [reads] *)
}

type t = {
  name : string;
  rank : int;
  inputs : string array;  (** grids the caller supplies *)
  stages : stage array;  (** definition order (not necessarily topological) *)
  outputs : string array;  (** stages whose grids the caller receives *)
}

val v :
  name:string ->
  rank:int ->
  inputs:string array ->
  outputs:string array ->
  stage list ->
  t
(** Construct a program. Raises [Invalid_argument] only for structural
    impossibilities (rank outside 1..3, no stages, an access whose field
    index falls outside its stage's [reads], offset rank mismatches);
    semantic DAG problems — cycles, undefined fields, duplicates — are
    left to {!issues} so the lint layer can report them with codes. *)

(** A semantic defect {!issues} found; the lint layer maps each
    constructor to a stable YS7xx code. *)
type issue =
  | Bad_name of { name : string; reason : string }
      (** not an identifier, a reserved builtin, or [f<digits>]-shaped *)
  | Duplicate_name of string  (** two inputs/stages share a name *)
  | Undefined_field of { stage : string; field : string }
      (** a stage reads a field that is neither an input nor a stage *)
  | Cycle of string list  (** stages forming a dependency cycle *)
  | Output_unknown of string  (** an output names no stage *)
  | Dead_stage of string  (** a stage no output (transitively) reads *)

val issues : t -> issue list
(** All semantic defects, deterministically ordered. A program with no
    issues is executable: it is acyclic, closed, and every stage
    contributes to an output. *)

val topo : t -> (string list, string list) result
(** Stage names in a topological order of the dependency DAG
    ([Error names] on a cycle, listing the stages of one cycle). The
    order is deterministic: depth-first from the stages in definition
    order. *)

type halo = {
  stage_ext : (string * int array) list;
      (** per-dimension extension each stage must be computed out to,
          in topological order *)
  input_halo : (string * int array) list;
      (** per-dimension halo each program input must arrive with
          (accumulated extension + read radius), in declaration order *)
}

val halo_plan : t -> halo
(** Accumulate halo requirements backwards along every dependency path
    (outputs at extension 0). Raises [Invalid_argument] on a cyclic or
    non-closed program — gate on {!issues} first. *)

val stage_spec : t -> stage -> Spec.t
(** The single-kernel view of one stage (named
    ["<program>.<stage>"]), suitable for analysis, lowering and
    sweeping. Raises [Invalid_argument] for a stage reading no field. *)

val find_stage : t -> string -> stage option

val inlinable : t -> string list
(** Stages that {!fuse} may inline: non-output stages with at least one
    consuming stage, in definition order. *)

val fuse : t -> inline:string list -> t
(** Inline each named stage into all of its consumers and drop it from
    the program. Substitution shifts the producer's accesses by the
    consuming offset and re-indexes fields into the consumer's widened
    read table, so the fused stage computes the identical real-valued
    function. Raises [Invalid_argument] if a name is not {!inlinable}
    (unknown, an output, or dead) or the program is cyclic. *)

val partitions : ?limit:int -> t -> string list list
(** All fuse/materialize partitions — subsets of {!inlinable} — in a
    canonical order starting with [[]] (fully materialized), capped at
    [limit] (default 4096). Every returned value is a legal [~inline]
    argument to {!fuse}. Used by tests only: the all-partitions
    bit-identity property enumerates them. *)

val components : t -> string list list
(** Connected components of the stage dependency graph (stages only;
    shared program inputs do not connect stages), each in definition
    order. Fusion decisions in different components are independent,
    which lets a ranker score [2^a + 2^b] sub-partitions instead of
    [2^(a+b)] whole-program ones. *)

val parse : string -> (t, int * string) result
(** Parse the textual program format; errors carry a 1-based line.

    {v
    # comment
    program <name>
    rank <1|2|3>
    inputs <field> <field> ...
    outputs <stage> <stage> ...
    <stage> = <expr>
    v}

    Directives may appear in any order and [inputs]/[outputs] lines may
    repeat (accumulating). Stage expressions use the {!Parser} syntax
    with every input and stage name available as a named field;
    [min]/[max]/[select] are the builtins. Stage definition order is
    preserved and need not be topological. *)

val to_text : t -> string
(** Render back to the textual format ({!parse} round-trips it):
    header, inputs, outputs, then stages in definition order with named
    accesses. Used by tests only: the text round-trip property. *)
