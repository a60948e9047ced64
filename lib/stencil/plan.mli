(** The flat kernel-plan IR.

    A plan is the layout-independent compiled form of a resolved stencil
    expression: a canonical access table (the distinct reads, in
    {!Analysis.accesses} order) and a body of postfix code — the
    constant-folded expression tree in its own operation order, so it
    evaluates bit-identically to walking the original tree. {!Lower}
    produces plans and binds them to concrete grids. The
    {!field-fingerprint} is a stable content-addressed digest (kernel
    name excluded) used as the memoization key by the ECM cache, the
    tuner's checkpoints and the Offsite executor. *)

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
  fingerprint : string;
  resolved : bool;
      (** memoized at construction: false iff [code] contains a
          {!Sym}. Use the {!val-resolved} accessor. *)
}

val v :
  name:string -> rank:int -> n_fields:int -> accesses:Expr.access array ->
  code:instr array -> depth:int -> t
(** Assemble a plan, computing its fingerprint: the MD5 of the rank,
    field count, access table and one token per instruction. Hex floats
    ([%h]) render coefficients, so distinct representable values never
    collide; [name] and [depth] are not part of it. *)

val n_slots : t -> int
(** Number of access-table entries. *)

val resolved : t -> bool
(** False iff the code still contains a {!Sym} (unresolved coefficient).
    Memoized at construction — O(1), safe on hot paths. *)
