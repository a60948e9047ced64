(** Method-of-lines PDE problems whose right-hand side is a stencil —
    the workload class for which Offsite consults YaskSite: every RK
    stage evaluation is a stencil sweep.

    A problem carries the spatial discretisation (a resolved
    {!Yasksite_stencil.Spec} computing du/dt from the state field), the
    boundary condition, the initial condition, and the analytic solution
    where available. It can be flattened into a generic {!Ivp} for the
    reference integrators, or executed grid-natively by the Offsite
    variant machinery. *)

type boundary = Dirichlet of float | Periodic

type t = {
  name : string;
  spec : Yasksite_stencil.Spec.t;
      (** resolved stencil computing du/dt (field 0 = u) *)
  rank : int;
  dims : int array;
  dx : float;
  boundary : boundary;
  init : int array -> float;
  exact : (float -> int array -> float) option;
      (** analytic solution u(t, i) at grid point i *)
}

val heat : rank:int -> n:int -> alpha:float -> t
(** Heat equation on the unit (hyper)cube with homogeneous Dirichlet
    boundaries, [n] interior points per dimension, second-order central
    differences; the exact solution is the decaying fundamental sine
    mode. *)

val advection_1d : n:int -> velocity:float -> t
(** 1D linear advection with periodic boundary and first-order upwind
    discretisation ([velocity > 0]); the listed exact solution is the
    translated initial profile of the {e PDE} (the discretisation adds
    numerical diffusion). *)

val advection_2d : n:int -> velocity:float * float -> t
(** 2D upwind advection, periodic, both velocity components positive.
    Used by tests only: the 2D periodic problem of the advection tests. *)

val fisher_kpp : rank:int -> n:int -> diffusion:float -> rate:float -> t
(** Fisher–KPP reaction–diffusion, u' = D lap u + r u (1 - u), with
    homogeneous Dirichlet boundaries and a central bump initial
    condition. Nonlinear (the stencil expression contains u*u), no
    closed-form solution — exercises the nonlinear-RHS path of the
    variant machinery. Used by tests only: the nonlinear problem of the
    Offsite variant-equivalence tests. *)

val halo : t -> int array
(** Halo width the RHS stencil requires. *)

val init_grid : t -> Yasksite_grid.Grid.t
(** Fresh grid holding the initial condition with valid halo. *)

val to_ivp : t -> t_end:float -> Ivp.t
(** Flat-vector view of the problem for the reference integrators. The
    IVP's exact solution is populated from the problem's, when present. *)

val grid_error_vs_exact : t -> tm:float -> Yasksite_grid.Grid.t -> float
(** Max-norm error of a state grid against the analytic solution. *)
