(** Butcher tableaux of explicit Runge–Kutta methods, including the
    explicit schemes Offsite tunes (classic RK families, the high-order
    weights of embedded pairs, and PIRK — fixed-point iterated implicit RK,
    which yields an explicit method with many structurally similar
    stages, the workload class the paper's ODE experiments target). *)

type t = {
  name : string;
  s : int;  (** number of stages *)
  a : float array array;
      (** s x s stage coefficient matrix; strictly lower-triangular for
          classic explicit methods (PIRK methods expand a full matrix
          into explicit sweeps) *)
  b : float array;  (** output weights, length s *)
  c : float array;  (** stage abscissae, length s *)
  order : int;
}

val v :
  name:string ->
  a:float array array ->
  b:float array ->
  c:float array ->
  order:int ->
  unit ->
  t
(** Validating constructor: square [a], matching lengths, explicitness
    (no [a.(i).(j)] with [j >= i] non-zero). *)

val euler : t

val heun2 : t

val kutta3 : t

val rk4 : t
(** The classic 4th-order method — the paper's main ODE workload. *)

val kutta38 : t

val dopri5 : t
(** Dormand–Prince 5(4), 7 stages (FSAL not exploited). *)

val all : t list
(** All classic explicit methods (not the PIRK constructions): the ones
    above plus ["ralston2"], ["rkf45"] (Fehlberg 4(5)) and
    ["cash-karp"], each advanced with its higher-order weights. *)

val find : string -> t
(** Lookup in {!all} by name; raises [Not_found]. *)

val pirk : stages:int -> iterations:int -> t
(** Parallel iterated Runge–Kutta: fixed-point iteration of the
    [stages]-stage Gauss–Legendre corrector, unrolled into an explicit
    tableau of [stages * iterations] stages with output order
    [min (2*stages) (iterations)]. Supports 1 or 2 base stages. *)

val weight_check : t -> float
(** |sum b - 1|: the zeroth-order consistency residual. Used by tests
    only: the order-conditions tests check every tableau with it. *)

val order_residual : t -> int -> float
(** Maximum residual of the order conditions up to the given order
    (supported up to 4); ~0 for a method of at least that order. Used by
    tests only: the order-conditions tests check every tableau with
    it. *)

val stability_polynomial : t -> float array
(** Coefficients [c_0 .. c_s] of the linear stability function
    R(z) = sum c_k z^k (c_0 = 1, c_1 = sum b, c_k = b^T A^(k-1) 1). For a
    method of order p, c_k = 1/k! for k <= p. *)

val real_stability_interval : t -> float
(** Largest x such that |R(-x')| <= 1 for all x' in [0, x] — the negative
    real-axis stability interval that limits the step size on parabolic
    problems (2.0 for Euler, ~2.79 for RK4). Computed numerically from
    {!stability_polynomial}. *)
