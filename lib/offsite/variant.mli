(** Implementation variants of one explicit Runge–Kutta step over a
    stencil-RHS PDE — the objects Offsite enumerates and asks YaskSite to
    rank.

    A variant is a straight-line sequence of stencil kernels per time
    step over named logical buffers. Two fusion schemes are built:

    - {e unfused}: every stage input Y_i = y + h sum a_ij K_j is
      materialised by a point-wise "axpy" kernel, then the RHS stencil is
      applied to it — many cheap sweeps, minimal streams per sweep;
    - {e fused}: the stage's linear combination is substituted into the
      RHS stencil ({!Yasksite_stencil.Expr.subst_accesses}), so each
      stage is a single sweep reading y and the previous K_j at stencil
      offsets — fewer sweeps, more streams each.

    Which one wins depends on the machine and grid size; that is exactly
    the question the ECM model answers without running either. *)

type buffer =
  | State  (** y at the current step *)
  | Stage of int  (** K_i *)
  | Stage_input  (** scratch Y_i (unfused scheme only) *)
  | Next_state  (** y at the next step *)

type kernel = {
  label : string;
  spec : Yasksite_stencil.Spec.t;  (** resolved; field k reads [inputs.(k)] *)
  inputs : buffer array;
  output : buffer;
}

type t = {
  name : string;
  scheme : [ `Unfused | `Fused | `Mixed of bool array ];
  kernels : kernel list;  (** executed in order, once per step *)
}

val buffers : t -> buffer list
(** Distinct buffers the variant touches. *)

val sweeps_per_step : t -> int

val with_mask :
  Yasksite_ode.Tableau.t ->
  Yasksite_ode.Pde.t ->
  h:float ->
  mask:bool array ->
  t
(** Per-stage fusion choice: stage i is fused into a single sweep when
    [mask.(i)], otherwise materialised by an axpy + RHS pair. [mask]
    must have one entry per stage. The all-false mask is {!unfused}, the
    all-true mask {!fused}; anything between is a mixed variant (the
    fuller space real Offsite enumerates). *)

val unfused : Yasksite_ode.Tableau.t -> Yasksite_ode.Pde.t -> h:float -> t

val fused : Yasksite_ode.Tableau.t -> Yasksite_ode.Pde.t -> h:float -> t

val all : Yasksite_ode.Tableau.t -> Yasksite_ode.Pde.t -> h:float -> t list
(** Both pure schemes. *)

val all_mixed :
  Yasksite_ode.Tableau.t ->
  Yasksite_ode.Pde.t ->
  h:float ->
  t list
(** Every fusion mask (2^s variants, de-duplicated: stages with an empty
    coefficient row have no axpy to fuse). Only for methods with at most
    4 stages; larger methods fall back to {!all}. *)
