(** The flat kernel-plan IR.

    A plan is the layout-independent compiled form of a resolved stencil
    expression: constant-folded coefficients, a canonical access table
    (the distinct reads, in {!Analysis.accesses} order) and a body that
    is either a detected linear combination ({!Groups}) or a flattened
    postfix program ({!Program}). Both forms evaluate bit-identically to
    walking the original expression tree; {!Lower} produces plans and
    binds them to concrete grids. The {!field-fingerprint} is a stable
    content-addressed digest (kernel name excluded) used as the
    memoization key by the ECM cache, the tuner's checkpoints and the
    Offsite executor. *)

type term = { coeff : float; slot : int }
(** One FMA-chain element: [coeff *. load slot], or the literal [coeff]
    when [slot = -1]. [slot] indexes the plan's access table. A coeff of
    exactly [1.0] or [-1.0] marks an unscaled (or negated) load. *)

type group = { scale : float option; terms : term array }
(** A left-to-right [+.] chain of terms, optionally multiplied by a
    constant [scale] (e.g. [r *. (sum of neighbours)] in heat stencils). *)

type instr =
  | Push of float
  | Load of int  (** push the value at access-table slot [i] *)
  | Sym of string
      (** unresolved coefficient: keeps the plan fingerprintable;
          binding such a plan for execution is refused *)
  | Neg
  | Add
  | Sub
  | Mul
  | Div
  | Min  (** pops b, a; pushes [Float.min a b] *)
  | Max  (** pops b, a; pushes [Float.max a b] *)
  | Sel
      (** pops b, a, c; pushes [if c > 0.0 then a else b] — the
          branchless compare-select, all operands already evaluated *)

type body =
  | Groups of group array
      (** evaluated as the left-to-right [+.] chain of group values *)
  | Program of { code : instr array; depth : int }
      (** postfix code; [depth] is the maximum stack depth needed *)

type t = {
  name : string;
  rank : int;
  n_fields : int;
  accesses : Expr.access array;
      (** canonical read set: sorted, deduplicated ({!Analysis.accesses}
          order) — shared by evaluation, tracing and the sanitizer *)
  body : body;
  fingerprint : string;
  resolved : bool;
      (** memoized at construction: false iff the body contains a
          {!Sym}. Use the {!val-resolved} accessor. *)
}

val v :
  name:string -> rank:int -> n_fields:int -> accesses:Expr.access array ->
  body:body -> t
(** Assemble a plan, computing its fingerprint. *)

val n_slots : t -> int
(** Number of access-table entries. *)

val resolved : t -> bool
(** False iff the body still contains a {!Sym} (unresolved coefficient).
    Memoized at construction — O(1), safe on hot paths. *)

val fingerprint_of :
  name:string -> rank:int -> n_fields:int -> accesses:Expr.access array ->
  body:body -> string
(** The digest {!v} would assign. Hex floats ([%h]) render coefficients,
    so distinct representable values never collide; [name] is ignored. *)

val describe : t -> string
(** One-line human summary (body shape, sizes, fingerprint prefix). *)
