(** Stencil expression AST.

    An expression computes the value written to the output grid at the
    "center" point from input-field values at constant relative offsets —
    the language YASK's stencil compiler accepts, minus its temporal
    conditionals. Coefficients may be literal constants or named symbols
    resolved when the kernel is compiled. *)

type access = {
  field : int;  (** input field index *)
  offsets : int array;  (** relative offsets, slowest dimension first *)
}

type t =
  | Const of float
  | Coeff of string  (** named scalar parameter *)
  | Ref of access
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Min of t * t  (** IEEE-754 minimum, [Float.min] semantics *)
  | Max of t * t  (** IEEE-754 maximum, [Float.max] semantics *)
  | Select of t * t * t
      (** [Select (c, a, b)] is the branchless compare-select
          [if c > 0.0 then a else b]: all three operands are evaluated
          unconditionally, so it lowers to a predicated blend rather
          than control flow. *)

val equal : t -> t -> bool
(** Structural equality with constants compared bit for bit:
    [Const 0.0] and [Const (-0.0)] differ, and a NaN constant equals
    itself. *)

val fold_accesses : t -> init:'a -> f:('a -> access -> 'a) -> 'a
(** Left fold over every [Ref] node (with repetitions, in evaluation
    order). *)

val coeff_names : t -> string list
(** Sorted, de-duplicated names of [Coeff] nodes. *)

val subst_coeffs : (string -> float option) -> t -> t
(** Replace named coefficients that the environment resolves by
    constants. *)

val map_accesses : (access -> access) -> t -> t
(** Rewrite every [Ref] node (used by fusion and shifting passes). *)

val subst_accesses : (access -> t) -> t -> t
(** Replace every [Ref] node by an arbitrary expression — the stage-fusion
    primitive: substituting "y + h * sum a_ij k_j" for each input access
    folds a Runge–Kutta stage's linear combination into the stencil. *)

val cfold : t -> t
(** Fold every all-constant subtree to the [Const] the tree would have
    computed at run time — exact in IEEE-754 double arithmetic. No
    [Ref] is ever dropped, so the read set is unchanged. This folded
    tree is what a lowered plan executes and what {!Analysis} counts. *)

val access_to_c : ?field_name:(int -> string) -> access -> string
(** Render one field access in the textual syntax, e.g. ["f0(z,y-1,x)"]
    (used by diagnostics as well as {!to_c}). [field_name] overrides the
    default ["f<index>"] naming — programs render stage-local field
    names through it. *)

val to_c : ?field_name:(int -> string) -> t -> string
(** Render as a C-like expression, with accesses shown as
    [f0(z-1,y,x)]-style calls — the shape of YASK-generated scalar code.
    [field_name] as in {!access_to_c}. *)
