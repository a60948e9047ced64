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

    The cache never evicts: it holds one entry per distinct key, at
    most 1,650 in any shipped experiment or command (E10). It is safe
    to share between domains (lookups and inserts are mutex-protected;
    model evaluation happens outside the lock). There is no
    process-wide instance: a caller that wants memoization across calls
    creates one cache and passes it to each (the CLI creates one per
    command; the empirical tuner and Offsite's entry points default to
    a fresh cache per call).

    The cache lives in memory only. A prediction costs a few
    microseconds to evaluate, less than reading one back from the
    persistent store, so none is written to disk. *)

type t

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** current resident entries *)
}

val create : unit -> t
(** An empty cache. *)

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

val machine_fingerprint : Yasksite_arch.Machine.t -> string
(** Content digest of a machine description — the machine component of
    cache keys, exposed so persistent consumers (Offsite's per-kernel
    config memos) key by the same identity. *)
