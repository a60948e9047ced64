(** Native translation validator: the YS6xx rule family.

    {!Yasksite_stencil.Codegen} emits one OCaml compilation unit per
    specialization variant, and the engine caches the compiled result
    {e forever} in the [kern-v1] store — a miscompile there would be a
    permanent wrong answer. This pass proves, statically and per
    resolution, that the emitted source is the plan:

    - it parses the source back into the checked AST
      ({!Yasksite_stencil.Kernel_ast}), whose grammar covers exactly
      the shapes the generator produces;
    - it rebuilds the expression the plan's postfix code {e requires}
      under the same variant, with its own walk of the code (not the
      generator's, which would check the code against itself);
    - it compares the two op for op, every divergence classified under
      a stable [YS6xx] code.

    {2 Rules}

    - [YS600] — the unit does not parse / deviates from the generated
      shape (including wrong prelude arity);
    - [YS601] — a coefficient literal does not round-trip bit-exactly
      ([Int64.bits_of_float]) to the plan's coefficient;
    - [YS602] — expression structure diverges (operation order or
      associativity — a reassociated chain changes IEEE-754 results);
    - [YS603] — dropped or extra term (sum arity differs);
    - [YS604] — address shift differs from the variant's per-slot
      last-dimension shift;
    - [YS605] — a load reads the wrong access-table slot (or an
      inconsistent data/row/table triple);
    - [YS606] — addressing mode disagrees with the variant's
      unit-stride flag (table indirection vs direct [x + shift]);
    - [YS607] — an emitted access implies a last-dimension offset
      outside the YS5xx-certified halo of the grid it reads;
    - [YS608] — output addressing (left pad or unit-stride mode)
      disagrees with the variant;
    - [YS610] — the unit registers under the wrong ABI-versioned
      callback name for its own key;
    - [YS611] — a prelude binding names the wrong source slot;
    - [YS612] — the plan itself cannot be symbolically evaluated
      (validator refusal — unresolved coefficients, malformed body).

    The validator is pure: no compiler, no execution, no allocation
    beyond the AST. {!Yasksite_engine.Native} runs it on every kernel
    resolution; a pass earns a native certificate ([cert-v1]) so warm
    paths skip re-validation. *)

module Plan := Yasksite_stencil.Plan
module Codegen := Yasksite_stencil.Codegen
module Grid := Yasksite_grid.Grid

val version : int
(** Version of the accepted grammar and rule set, embedded in native
    certificates so stale verdicts are re-proved after a validator
    change. *)

val check :
  plan:Plan.t ->
  variant:Codegen.variant ->
  inputs:Grid.t array ->
  string ->
  Diagnostic.t list
(** [check ~plan ~variant ~inputs src] validates the emitted source
    [src] against the plan under [variant]; [inputs] supply the halo
    bounds for YS607. Empty iff the translation is proved equivalent.
    Raises [Invalid_argument] if the variant's arrays do not match the
    plan's access-table arity. *)

val validate :
  plan:Plan.t ->
  variant:Codegen.variant ->
  inputs:Grid.t array ->
  string ->
  (unit, Diagnostic.t list) result
(** {!check} as a result: [Error] carries the findings when any is an
    error. *)
