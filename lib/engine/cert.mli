(** Safety-certificate store: content-addressed records that a
    (plan × layout × halo × blocking) tuple passed full certification
    (the YS5xx static verifier plus the YS511 traced cross-validation;
    see {!Certify}).

    {!Sweep.run} and {!Wavefront.steps} consult the store when a
    sanitized, gate-checked run starts: a hit selects the unchecked
    fast path (per-point shadow checks skipped, shadow state
    bulk-committed via {!Sanitizer.commit_pass}); a miss keeps the
    fully checked path. Keys deliberately exclude grid extents — the
    bounds proof is per-dimension |offset| ≤ halo, so one certificate
    covers every problem size with the same layout and halo.

    The store is process-wide, in memory only, and thread-safe.
    Certification re-derives faster than a persistent store writes a
    record, so certificates are not kept on disk. A caller that needs
    the checked path (the legal-space sweeps of the tests and of E16)
    starts from an empty store with {!clear} and does not certify. *)

module Grid := Yasksite_grid.Grid
module Plan := Yasksite_stencil.Plan
module Config := Yasksite_ecm.Config

type entry = {
  key : string;
  fingerprint : string;  (** the certified plan's content digest *)
  loads_per_point : int;  (** certified traffic: reads per update *)
}

val key :
  plan:Plan.t -> inputs:Grid.t array -> output:Grid.t ->
  config:Config.t -> string
(** The certificate key of one tuple: digest over the plan fingerprint,
    each grid's (layout, halo) signature, and the config's block/fold —
    grid extents excluded. *)

val lookup : string -> entry option
(** [None] when absent. *)

val mem : string -> bool

val insert : entry -> unit

val size : unit -> int
(** Certificates held. Used by tests only: the certificate tests count
    what a sweep certified. *)

val clear : unit -> unit
(** Drop every certificate and reset the fast-path counter (test
    isolation). *)

val record_fast_path : unit -> unit
(** Called by the engine each time a certificate engages the unchecked
    fast path. *)

val fast_path_hits : unit -> int
(** How many sweeps/wavefronts ran on the certified fast path since the
    last {!clear}. *)
