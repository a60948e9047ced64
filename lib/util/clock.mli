(** Injectable monotonic clock.

    Every component that accounts wall time (the measurement harness,
    the tuner's budget and backoff logic) reads time through a [Clock.t]
    instead of reading the system clock directly, so deadline and budget
    behaviour is testable with a deterministic clock. *)

type t

val system : t
(** Monotonic wall clock ([CLOCK_MONOTONIC], via bechamel's
    [Monotonic_clock]) — the default everywhere. Unlike process CPU
    time it does not add up across domains, so budgets and deadlines
    checked under a pool see elapsed time. Its origin is arbitrary:
    only differences between readings are meaningful. *)

val of_fun : (unit -> float) -> t
(** Arbitrary time source (e.g. a counter that advances on every read).
    Used by tests only: the tuner-budget and pooled-tuner tests drive
    deadlines with a counting clock. *)

val manual : ?start:float -> unit -> t
(** A clock that only moves when {!advance} is called; starts at
    [start] (default 0). Used by tests only: the clock tests pin its
    readings. *)

val now : t -> float
(** Current reading, in seconds. *)

val advance : t -> float -> unit
(** Advance a {!manual} clock by a non-negative delta. Raises
    [Invalid_argument] on other clocks or negative deltas. Used by
    tests only, with {!manual}. *)
