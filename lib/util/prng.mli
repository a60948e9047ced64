(** Deterministic pseudo-random number generation.

    All randomized components of the library (workload generators, noise
    models, property-test helpers) draw from this splittable generator so
    that every experiment is bit-reproducible across runs and platforms,
    independent of the [Random] module's global state. *)

type t
(** Mutable generator state (splitmix64). *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used by tests only: the reference {!create_indexed} is checked
    against. *)

val create_indexed : seed:int -> index:int -> t
(** [create_indexed ~seed ~index] is the generator the [(index+1)]-th
    call to [split] on [create ~seed] would return, computed in O(1)
    without shared state. Lets concurrent consumers (one per candidate,
    say) draw the exact streams sequential splitting would have handed
    out. [index] must be non-negative. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller); consumes two uniform draws. *)

