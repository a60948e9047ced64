(** Memoization of ECM model evaluations.

    [Model.predict] is pure, so its results can be cached across the
    repeated rankings the stack performs: Offsite scores many ODE
    variants against one machine, tuners re-rank on resume, and a
    parallel sweep's domains evaluate overlapping spaces. Entries are
    keyed by {e content} — machine fingerprint x kernel signature x
    grid dims x full configuration (threads included) — so structurally
    equal inputs hit regardless of physical identity. A ranking digests
    the machine and the kernel once for its whole space ({!predictor});
    the per-config part of a key is [Config.describe].

    The cache is a bounded LRU and is safe to share between domains
    (lookups and inserts are mutex-protected; model evaluation happens
    outside the lock). There is no process-wide instance: a caller that
    wants memoization across calls creates one cache and passes it to
    each (the CLI creates one per command; the tuner and Offsite entry
    points default to a fresh cache per call).

    With a persistent store attached ({!attach_store}), a memory miss
    consults the store before evaluating the model, and computed
    predictions are written through — so a later process warm-starts
    from disk. The store absorbs its own failures; attaching one can
    change only the cache's speed, never its results. *)

type t

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** current resident entries *)
  capacity : int;
  store_hits : int;  (** memory misses served by the attached store *)
  store_misses : int;  (** memory misses the store could not serve *)
}

val create : ?capacity:int -> unit -> t
(** [create ()] builds an empty cache evicting least-recently-used
    entries beyond [capacity] (default 65536). [capacity] must be
    >= 1. *)

val predictor :
  t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  Config.t ->
  Model.prediction
(** [predictor cache m a ~dims] digests the machine and lowers the
    kernel once, and returns the memoized [Model.predict] for one
    config: the cached prediction when the (machine, kernel, dims,
    config) content key was seen before, else the model's, which is
    cached. A ranking builds one predictor for its whole space. Each
    lookup counts one hit or one miss, as {!predict} does. *)

val predict :
  t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  config:Config.t ->
  Model.prediction
(** [predictor t m a ~dims config]: one memoized lookup, digesting the
    machine and the kernel for it alone. *)

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val clear : t -> unit
(** Drop all entries and zero the counters (the attached store, if any,
    stays attached and keeps its on-disk entries). *)

(** {1 Persistent spill} *)

val attach_store : t -> Yasksite_store.Store.t -> unit
(** Route memory misses through [store] (namespace ["ecm-v1"]) and
    write computed predictions through to it. *)

val detach_store : t -> unit

val machine_fingerprint : Yasksite_arch.Machine.t -> string
(** Content digest of a machine description — the machine component of
    cache and store keys, exposed so other persistent consumers
    (Offsite memos) key by the same identity. *)

val prediction_to_string : Model.prediction -> string
(** Exact, versioned text rendering of a prediction (the store payload
    format; exposed for tests). *)

val prediction_of_string : string -> Model.prediction option
(** Inverse of {!prediction_to_string}; [None] on malformed input. *)
