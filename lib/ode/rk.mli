(** Explicit Runge–Kutta and Adams–Bashforth integrators over flat state
    vectors — the reference semantics every Offsite implementation
    variant must reproduce, plus adaptive step-size control with
    embedded pairs. *)

type workspace
(** Preallocated stage storage for repeated stepping. *)

val make_workspace : Tableau.t -> dim:int -> workspace

val step :
  workspace ->
  Tableau.t ->
  Ivp.t ->
  tm:float ->
  h:float ->
  y:float array ->
  out:float array ->
  unit
(** One explicit RK step from [y] at time [tm] with step size [h] into
    [out] ([out] may not alias [y]). *)

val integrate : Tableau.t -> Ivp.t -> steps:int -> float array
(** Fixed-step integration from 0 to [t_end] in [steps] equal steps;
    returns the final state. *)

val observed_order : Tableau.t -> Ivp.t -> float
(** Convergence order estimated by Richardson comparison of fixed-step
    runs against a fine-step reference on the same problem. Used by
    tests only: the observed-orders test confirms each tableau delivers
    its design order. *)
