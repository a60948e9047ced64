(** The flat kernel-plan IR.

    A plan is the layout-independent compiled form of a resolved stencil
    expression: a canonical access table (the distinct reads, in
    {!Analysis.accesses} order) and a body of postfix code — the
    constant-folded expression tree in its own operation order, so it
    evaluates bit-identically to walking the original tree. A subtree
    the tree contains more than once may be computed once, kept in a
    {e temporary} ({!Save}) and pushed again wherever it recurs
    ({!Recall}): the code then evaluates the tree's DAG, with every
    operation on the same operands as in the tree, so the values stay
    bit-identical. {!Lower} produces plans and binds them to concrete
    grids. The {!field-fingerprint} is a stable content-addressed digest
    (kernel name excluded) used as the memoization key by the ECM cache,
    the tuner's checkpoints and the Offsite executor. *)

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
  | Save of int
      (** copy the top of the stack into temporary [t], leaving the
          stack as it is (pops the value and pushes it back) *)
  | Recall of int  (** push the value {!Save} last stored in temporary [t] *)

type t = {
  name : string;
  rank : int;
  n_fields : int;
  accesses : Expr.access array;
      (** canonical read set: sorted, deduplicated ({!Analysis.accesses}
          order) — shared by evaluation, tracing and the sanitizer *)
  code : instr array;  (** the body, postfix *)
  depth : int;
      (** the maximum stack depth [code] reaches; it sizes the driver's
          unchecked stack, so {!Lower.check} refuses code that exceeds
          it *)
  temps : int;
      (** the number of temporaries [code] uses: each of [0 .. temps-1]
          is saved exactly once, before any recall of it. It sizes the
          driver's temporary rows, so {!Lower.check} refuses code that
          names any other. *)
  fingerprint : string;
  resolved : bool;
      (** memoized at construction: false iff [code] contains a
          {!Sym}. Use the {!val-resolved} accessor. *)
}

val v :
  name:string -> rank:int -> n_fields:int -> accesses:Expr.access array ->
  code:instr array -> depth:int -> temps:int -> t
(** Assemble a plan, computing its fingerprint: the MD5 of the rank,
    field count, access table and one token per instruction of the
    tree the code computes. A {!Recall} renders as the instructions its
    {!Save} captured and a {!Save} renders as nothing, so sharing never
    moves a key: a plan and its temporary-free tree form share one
    fingerprint. Hex floats ([%h]) render coefficients, so distinct
    representable values never collide; [name], [depth] and [temps] are
    not part of it. *)

val code_digest : t -> string
(** The fingerprint when the code has no temporaries; otherwise the MD5
    of the same rendering with each {!Save} and {!Recall} as a token of
    its own. It tells apart two plans that compute one tree with
    different sharing, which {!Codegen.key} needs because their emitted
    sources differ. *)

val pops : instr -> int
(** Values an instruction pops; each pushes exactly one. *)

val n_slots : t -> int
(** Number of access-table entries. *)

val resolved : t -> bool
(** False iff the code still contains a {!Sym} (unresolved coefficient).
    Memoized at construction — O(1), safe on hot paths. *)
