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
(** Advance one time step (the variant's [h]). Every kernel sweeps on
    the plan interpreter. *)

val run : t -> steps:int -> unit

val state : t -> Yasksite_grid.Grid.t
(** The current state grid (valid between steps). *)

val steps_done : t -> int
(** Steps advanced so far. Used by tests only: the executor tests count
    steps with it. *)
