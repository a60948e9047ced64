(** Bounded retry loop with backoff and pass-budget enforcement.

    Time flows through the injected [now] / [sleep] pair, so the loop is
    deterministic under a manual clock: [sleep] is expected to {e charge}
    the delay (advance virtual time or an accounting counter), not to
    block the process. *)

type 'a outcome =
  | Success of 'a * int  (** value and the attempt number that succeeded *)
  | Gave_up of { reason : string; attempts : int }
      (** attempts actually made (0 if a budget was already exhausted) *)

val run :
  policy:Policy.t ->
  rng:Yasksite_util.Prng.t ->
  now:(unit -> float) ->
  sleep:(float -> unit) ->
  ?deadline:float ->
  (unit -> ('a, string) result) ->
  'a outcome
(** Attempt [f] up to [policy.max_attempts] times, sleeping a
    decorrelated-jitter backoff between attempts. Gives up early when
    [now () > deadline] (the sweep-wide budget). Never attempts more
    than [policy.max_attempts] times, and every backoff delay is at most
    {!Policy.max_backoff_s}. *)
