(** Initial value problems y' = f(t, y) on [\[0, t_end\]], the workload
    of the explicit methods Offsite tunes. Besides the classic
    scalar/small-system test problems used to validate the integrators,
    PDE-derived problems with stencil right-hand sides are built by
    {!Pde}. *)

type t = {
  dim : int;
  rhs : tm:float -> y:float array -> dydt:float array -> unit;
      (** writes f(tm, y) into [dydt]; must not retain the arrays *)
  y0 : float array;  (** state at time 0 *)
  t_end : float;
  exact : (float -> float array) option;  (** analytic solution, if any *)
}

val v :
  rhs:(tm:float -> y:float array -> dydt:float array -> unit) ->
  y0:float array ->
  t_end:float ->
  ?exact:(float -> float array) ->
  unit ->
  t
(** Validating constructor ([dim] is [Array.length y0], positive;
    [t_end > 0]). *)

val exp_decay : lambda:float -> t
(** y' = -lambda y, y(0) = 1, exact [exp (-lambda t)]. Used by tests
    only: a reference problem of the integrator accuracy tests. *)

val harmonic : omega:float -> t
(** Harmonic oscillator as a 2-system; exact (cos, -omega sin). Used by
    tests only: a reference problem of the observed-order tests. *)

val diagonal : lambdas:float array -> t
(** Decoupled linear system y_i' = -lambda_i y_i with exact solution.
    Used by tests only: a reference problem of the IVP library test. *)

val brusselator : t
(** The (non-stiff parameterisation of the) Brusselator: a nonlinear
    2-system without closed-form solution; exercises nonlinear RHS.
    Used by tests only: the nonlinear problem of the IVP library test. *)

val error_vs_exact : t -> y:float array -> float
(** Max-norm error of [y] against the exact solution at [t_end]; raises
    [Invalid_argument] if the problem has no exact solution. Used by
    tests only: the integrator accuracy tests measure with it. *)
