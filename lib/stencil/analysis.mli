(** Static analysis of a stencil kernel: everything the ECM model and the
    layer-condition machinery need to know without running the code. *)

type shape =
  | Point  (** all accesses at the center *)
  | Star  (** offsets on the axes only (e.g. 3d7pt) *)
  | Box  (** general offsets within the radius box (e.g. 3d27pt) *)

type t = {
  spec : Spec.t;
  accesses : Expr.access list;
      (** distinct accesses in lexicographic order — the post-CSE load
          set: each distinct (field, offset) is loaded once per LUP *)
  radius : int array;  (** per-dimension max |offset| over all accesses *)
  shape : shape;
  adds : int;  (** additive operations (Add/Sub) per LUP *)
  muls : int;
  divs : int;
  flops : int;
      (** adds + muls + divs. All four are counted on the
          constant-folded tree ({!Expr.cfold}): every occurrence of a
          repeated subtree is billed. See "Billed and executed
          operations" below. *)
  loads : int;  (** [List.length accesses] *)
  stores : int;  (** always 1: the output write *)
  read_fields : int list;  (** distinct fields read, ascending *)
}

(** {2 Billed and executed operations}

    This is the one place the choice is recorded.
    - The ECM in-core model ({!Yasksite_ecm.Incore}) and the cycles
      [Measure] bills a simulated run count these operations: the
      folded {e tree}'s, every occurrence of a repeated subtree once.
    - A lowered plan executes the folded tree's {e DAG}: {!Lower}
      computes an operator subtree that occurs more than once a single
      time and recalls it from a temporary, and generated kernels
      [let]-bind it. Fused program stages repeat their producers'
      subtrees, so they execute fewer operations than are billed.
    - YS510 ({!Yasksite_lint.Plan_lint.counts_agree}) enforces executed
      ≤ billed, so the model never undercounts a kernel.

    Billing the DAG instead would cut fused stages' in-core time, and
    that can reorder the partitions [program rank] prints and perfbench
    checks. So it waits for a model change made after the benchmark can
    take it. *)

val of_spec : Spec.t -> t

val halo : t -> int array
(** Ghost-zone width required per dimension (equals [radius]). *)

val accesses_of_field : t -> int -> int array list
(** Distinct offsets at which a given field is read. *)

val min_code_balance : t -> float
(** Bytes per lattice update assuming perfect in-cache reuse: one load
    stream per distinct read field plus write-allocate + write-back for
    the output — the paper's "optimal code balance" B_c in bytes/LUP. *)

val describe : t -> string list
(** One table row: name, rank, shape, radius, flops, loads, balance. *)
