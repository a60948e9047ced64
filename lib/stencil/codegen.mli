(** Plan→native code generation: specialize a kernel plan to OCaml
    source.

    Where {!Lower} {e interprets} a plan row by row, this module emits a
    self-contained OCaml compilation unit whose inner loop is the plan
    fully unrolled — every coefficient a literal, every last-dimension
    shift and pad constant-folded into the address arithmetic, table
    indirection dropped entirely on unit-stride grids — so the native
    compiler sees one straight-line expression per point with no
    dispatch of any kind. The engine's [Codegen_backend]
    ({!Yasksite_engine.Sweep}) compiles the emitted source out of
    process with [ocamlfind ocamlopt -shared], loads the resulting
    [.cmxs] via [Dynlink], and caches it in the content-addressed store
    under the [kern-v1] schema; this module is the pure front half — it
    only builds strings and keys, and is usable without any toolchain.

    {2 Specialization point}

    A generated kernel is specific to one {e variant}: the plan
    fingerprint × the per-slot last-dimension shifts (access offset +
    grid left pad, which fold the halo geometry into literals) × the
    per-slot and output unit-stride flags (layout/fold) × the output
    pad. Two grid sets sharing a variant share the kernel; extents are
    {e not} part of the variant (row bases arrive at run time), so one
    kernel covers every problem size of a given layout.

    {2 Bit-identity}

    The emitted expression replays the plan interpreter's exact
    IEEE-754 operation sequence: the postfix body is reconstructed into
    the nested expression whose evaluation order is the code's own,
    every operation in its own parentheses.
    Coefficients render as hex-float literals (round-trip exact for
    every finite double); plans with [NaN] coefficients or unresolved
    {!Plan.Sym}s are refused ({!source} returns [Error]) and the caller
    falls back to the interpreter.

    {2 ABI}

    The generated unit depends only on the stdlib — no cmi of this
    code base is shared with it — and publishes [kern_row] through
    [Callback.register] under {!callback_name}, which embeds {!abi}.
    The host retrieves it through [caml_named_value] and casts to
    {!type-kern_row}; bumping {!abi} whenever what the unit registers
    changes is what keeps that cast sound. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type kern_row =
  farr array ->
  int array array ->
  farr ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  unit
(** [kern_row slot_data slot_tab out out_tab row out_row xb xe]
    evaluates and stores every point [xb <= x < xe] of the current row
    — the generated counterpart of {!Lower.store_row}. [row] holds the
    per-slot flat row bases and [out_row] the output's (both computed
    by the caller's {!Lower.driver}); the tables are only read for
    slots the variant marks non-unit-stride. No bounds checks — the
    caller gates regions exactly as for the interpreter; traced and
    sanitized sweeps issue each point's checks and trace events before
    the call. *)

val abi : int
(** ABI version of what a unit registers, embedded in
    {!callback_name} and in compiled payloads. Bump on any change to it.
    Version 2 registers {!type-kern_row} alone; version 1 registered a
    pair of functions. *)

type variant = {
  slot_shift : int array;
      (** per access-table slot: last-dim offset + input grid left pad *)
  slot_unit : bool array;
      (** per slot: the input grid is unit-stride (identity table) *)
  out_lp : int;  (** output grid's last-dimension left pad *)
  out_unit : bool;  (** the output grid is unit-stride *)
}
(** Everything besides the plan itself that the emitted source folds
    into literals. *)

val variant_of :
  plan:Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> variant
(** The variant these grids induce for [plan]. The grids' extents do
    not matter, only halo/pad and layout. *)

val key : plan:Plan.t -> variant -> string
(** Content-addressed digest of (ABI × plan fingerprint × variant) —
    the specialization key. The store key additionally hashes in the
    compiler version and flags (see {!Yasksite_engine.Native}). *)

val callback_name : string -> string
(** [callback_name key]: the ABI-versioned [Callback.register] name the
    generated unit publishes its row kernel under. *)

val unit_basename : string -> string
(** [unit_basename key]: the source/compilation-unit basename
    (extension-less) to emit the unit as — stable per key so reloads
    re-use one unit name ([Dynlink.loadfile_private] allows that). *)

val source : plan:Plan.t -> variant -> (string, string) result
(** The complete OCaml source of the specialized unit, or
    [Error reason] when the plan cannot be generated (unresolved
    {!Plan.Sym} coefficients, [NaN] coefficients, malformed body).
    Raises [Invalid_argument] if the variant's arrays do not match the
    plan's access-table arity. *)
