(** A reusable pool of worker domains for data-parallel sections.

    The pool owns [size - 1] worker domains (spawned lazily on the first
    parallel call, parked between jobs) and the calling domain
    participates in every job, so a pool of size [n] runs work on [n]
    domains. Scheduling is chunked self-service over the index space,
    which load-balances uneven work without per-index synchronisation.

    Determinism: {!parallel_map} preserves order — element [i] of the
    result is [f] of element [i] of the input, whatever domain computed
    it — so for pure [f] it equals [List.map] exactly.

    Exception safety: if [f] raises, the first exception (with its
    backtrace) is re-raised in the caller once every participant has
    quiesced; remaining chunks are abandoned and the pool stays
    usable. *)

type t

val size : t -> int
(** Total participating domains, including the caller. *)

val shared : unit -> t
(** A process-wide pool, created on first use and never shut down,
    whose width is the [YASKSITE_DOMAINS] environment variable if set
    (a positive integer), else [Domain.recommended_domain_count ()].
    Intended for entry points that do not manage pool lifetime
    themselves. *)

val parallel_for : ?chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n f] runs [f i] for every [i] in [[0, n)], in
    chunks of [chunk] consecutive indices (default: [n / (4 * size)],
    at least 1) claimed dynamically by the participating domains.
    [f] must be safe to call concurrently with itself. Nested calls
    from inside a job — whether on a worker domain or on the calling
    domain while it runs its share of the job — run inline
    (sequentially) rather than deadlock. Jobs submitted concurrently
    by distinct domains are serialised: the second submitter blocks
    until the first job completes. *)

val parallel_map : ?chunk:int -> t -> 'a list -> f:('a -> 'b) -> 'b list
(** Order-preserving parallel map: for pure [f],
    [parallel_map t l ~f = List.map f l]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool of [domains]
    domains in total (the caller plus [domains - 1] lazily spawned
    workers; default as for {!shared}) and joins its workers on the way
    out (exceptions included). [domains] must be >= 1; a pool of 1 runs
    everything inline with no synchronisation. *)
