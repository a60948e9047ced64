(** Random stencil generation for property-based testing.

    The engine's loop transformations (blocking, folding, wavefronts) are
    verified to bit-reproduce the naive schedule on randomly drawn
    stencils, not just the hand-written suite. *)

val spec : Yasksite_util.Prng.t -> rank:int -> Spec.t
(** [spec rng ~rank] draws a random constant-coefficient stencil: a
    star or box access pattern of radius 1 or 2 with
    random subsets of the candidate offsets (always including the
    center) and random coefficients in [\[-1, 1\]]. The result is fully
    resolved (no symbolic coefficients). Used by tests only: the random
    kernels of the backend, lint and schedule properties. *)
