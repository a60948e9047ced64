(** Seeded miscompile injector for the YS6xx translation validator.

    Mutates the OCaml source {!Yasksite_stencil.Codegen} emits in ways
    a real code-generation bug would — a coefficient off by one ulp, a
    reassociated sum, an off-by-one address shift, a dropped summand,
    a wrong-slot read — and hands the mutant back as source. Every
    mutation is structural (parse into the validator's checked AST,
    rewrite one node, print back), so the mutant is always well-formed
    OCaml in the generated shape and the {e only} defect is the
    injected miscompile; the adversarial corpus in the test suite and
    CI proves each {!Yasksite_lint.Native_lint} rule actually fires.

    Deterministic by construction: a [(seed, class, source)] triple
    always yields the same mutant, via the shared splitmix64 streams
    ({!Yasksite_util.Prng}). *)

(** One class of injected miscompile. *)
type cls =
  | Coeff_perturb  (** one-ulp flip of a coefficient literal (YS601) *)
  | Swap_assoc
      (** reassociate a left-leaning [+.] chain rightward (YS602) *)
  | Offset_off_by_one  (** nudge one address shift by ±1 (YS604) *)
  | Drop_term  (** drop the trailing term of a sum (YS603) *)
  | Wrong_slot  (** read a different data handle or row base (YS605) *)
  | Rename_registration  (** register under a non-ABI name (YS610) *)

val classes : cls list
(** Every class, in declaration order. *)

val class_name : cls -> string
(** Stable kebab-case name (CLI [--miscompile] argument). *)

val class_of_name : string -> cls option

val expected_code : cls -> string
(** The YS6xx code the validator is required to report for a mutant of
    this class. Further codes may fire alongside (an off-by-one shift
    on a boundary access also escapes the halo, say). *)

val mutate : seed:int -> cls -> string -> (string, string) result
(** [mutate ~seed cls src] is one mutant of the emitted kernel [src],
    or [Error reason] when [src] offers no mutation site for [cls]
    (e.g. no coefficient literals in an all-[1.0] stencil) or does not
    parse as a generated kernel. *)

val corpus : seed:int -> per_class:int -> string -> (cls * string) list
(** Up to [per_class] {e distinct} mutants of every class, tagged with
    their class. Classes without a site in this kernel contribute
    nothing — build the corpus over several kernels to cover every
    class. *)
