(** Combinators for writing stencil expressions concisely.

    [open Yasksite_stencil.Dsl] locally to write kernels like
    {[
      let heat_3d =
        p "r" *: sum [ fld [-1;0;0]; fld [1;0;0]; fld [0;-1;0];
                       fld [0;1;0]; fld [0;0;-1]; fld [0;0;1] ]
        +: (p "c" *: fld [0;0;0])
    ]} *)

val fld : ?field:int -> int list -> Expr.t
(** Field access at a relative offset (slowest dimension first); [field]
    defaults to 0. *)

val c : float -> Expr.t
(** Literal constant. *)

val p : string -> Expr.t
(** Named coefficient, resolved at kernel-compile time. *)

val ( +: ) : Expr.t -> Expr.t -> Expr.t

val ( -: ) : Expr.t -> Expr.t -> Expr.t

val ( *: ) : Expr.t -> Expr.t -> Expr.t

val ( /: ) : Expr.t -> Expr.t -> Expr.t
(** Used by tests only: builds the division-rooted kernels of the
    backend bit-identity properties. *)

val neg : Expr.t -> Expr.t

val fmax : Expr.t -> Expr.t -> Expr.t
(** [Expr.Max]; named to avoid shadowing [Stdlib.max]. Used by tests
    only: builds the in-place select kernel of the codegen tests. *)

val select : Expr.t -> Expr.t -> Expr.t -> Expr.t
(** [select cond a b] evaluates all three operands and yields [a] when
    [cond > 0.0], else [b] — a branchless compare-select. Used by tests
    only: builds the in-place select kernel of the codegen tests. *)

val sum : Expr.t list -> Expr.t
(** Left-associated sum; the list must be non-empty. *)
