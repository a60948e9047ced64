(** Grid-native execution of an implementation variant — the semantic
    reference: advancing the PDE with a variant's kernel sequence must
    produce exactly what the flat-vector RK integrator produces (the
    integration tests check this to machine precision).

    Buffers are materialised as grids with the stencil's halo; halos are
    refreshed according to the problem's boundary condition before every
    kernel that reads a buffer at non-zero offsets (for Dirichlet
    problems the stage derivative is pinned to 0 on the boundary, since
    the boundary values are constant in time). *)

type t

val create : Yasksite_ode.Pde.t -> Variant.t -> t
(** Allocate buffers and compile the kernel sequence. The PDE's initial
    condition is loaded into the state buffer. *)

val step : t -> unit
(** Advance one time step (the variant's [h]). *)

val run : t -> steps:int -> unit

type run_report = {
  steps_requested : int;
  steps_completed : int;
  step_attempts : int;  (** including failed and timed-out attempts *)
  retries : int;  (** attempts that did not advance the state *)
  gave_up : bool;
      (** a step exhausted its retries or a budget; the state is left at
          the last completed step *)
  charged_seconds : float;
      (** simulated backoff and timeout time charged to the run *)
}

val run_resilient :
  ?faults:Yasksite_faults.Plan.t ->
  ?policy:Yasksite_faults.Policy.t ->
  t ->
  steps:int ->
  run_report
(** Like {!run}, but each step survives the injected fault plan: a
    transient failure or simulated timeout fires {e before} the step's
    kernels execute, so retrying is always safe (the state advances
    exactly once per completed step). Retries, backoff and budgets follow
    [policy]; the pass budget is wall time on
    {!Yasksite_util.Clock.system} plus the charged backoff and timeout
    time. With the default fault-free plan this is exactly {!run}.
    Deterministic for a fixed [faults.seed]. *)

val state : t -> Yasksite_grid.Grid.t
(** The current state grid (valid between steps). *)

val steps_done : t -> int
