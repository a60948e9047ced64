(** Plan-IR dataflow verifier: the YS5xx rule family.

    Abstract interpretation over the flat kernel plan
    ({!Yasksite_stencil.Plan}) — the last IR before the engine's
    unchecked drivers run it — proving, per (plan × layout × halo)
    tuple:

    - YS500 slot/field references stay inside the access table and the
      declared field range;
    - YS501 every access stays inside its allocation across the full
      iteration space of the given grids (|offset| ≤ halo per
      dimension; extent-independent, so the verdict transfers across
      problem sizes);
    - YS502 the postfix code is stack-safe: no underflow, and the
      declared depth (which sizes the driver's unchecked stack) equals
      the measured maximum;
    - YS503 dead loads, YS504 duplicate access-table entries;
    - YS505 the program leaves exactly one result on the stack (dead
      or missing computation otherwise);
    - YS506 unresolved symbolic coefficients;
    - YS507 statically reachable division by a provably-zero operand,
      YS508 provably-zero dead arithmetic (constant propagation);
    - YS510 the plan's own FLOP/load/store counts agree with the
      expression-level {!Analysis} the ECM model is fed.

    A clean verdict is what {!Yasksite_engine}'s certification layer
    turns into a safety certificate, after additionally
    cross-validating the counts against a traced execution (YS511);
    the certificate selects the engine's unchecked fast path. The
    dynamic counterpart of a YS5xx error is a YS45x sanitizer trap (or
    a bind-time refusal) when the plan is forced through the engine. *)

module Plan := Yasksite_stencil.Plan
module Analysis := Yasksite_stencil.Analysis
module Grid := Yasksite_grid.Grid

val measured_depth : Plan.instr array -> int option
(** The interpreter-measured maximum stack depth, when the program is
    well-formed ([Some max_depth] iff there is no underflow and exactly
    one value remains); the plan's declared [depth] must equal it. Used
    by tests only: the lowering properties check declared depths
    against it. *)

val structure : Plan.t -> Diagnostic.t list
(** The grid-free rules: YS500 (dangling slots), YS502 (stack safety),
    YS503 (dead loads), YS504 (duplicate slots), YS505 (missing or
    unconsumed results), YS506 (unresolved [Sym]s), YS507 (division by
    provable zero), YS508 (provably-zero arithmetic). *)

val bounds :
  Plan.t -> inputs:Grid.t array -> output:Grid.t -> Diagnostic.t list
(** YS501: field-count/rank agreement with the concrete grids and the
    allocation-safety proof |offset| ≤ halo per dimension. *)

type counts = {
  adds : int;
  muls : int;
  divs : int;
  flops : int;
  loads : int;  (** access-table slots — distinct reads per update *)
  stores : int;  (** always 1 *)
}

val counts : Plan.t -> counts
(** The plan's own per-update work, counted from the body the engine
    actually executes (negations are free, as in {!Analysis}). *)

val counts_agree : Plan.t -> Analysis.t -> Diagnostic.t list
(** YS510: loads/stores and the access set must match {!Analysis}
    exactly; flops and divisions must not exceed what it bills (it
    counts the same constant-folded tree, so they agree). *)

val check :
  ?info:Analysis.t -> Plan.t -> inputs:Grid.t array -> output:Grid.t ->
  Diagnostic.t list
(** The full static pass: {!structure} @ {!bounds} (@ {!counts_agree}
    when [info] is given), deduplicated. *)
