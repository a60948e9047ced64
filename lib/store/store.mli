(** On-disk, content-addressed artifact store: what costs more to
    recompute than to read back — compiled kernels, sweep checkpoints,
    Offsite per-kernel configs — outlives the process through this
    module.

    {1 Guarantees}

    - {b Never fails a working pipeline.} Every operation absorbs
      filesystem errors: an absent, read-only, torn or
      version-mismatched root degrades to in-memory behaviour (gets
      miss, puts drop) and records a diagnostic. The only exception let
      out is {!Yasksite_faults.Io.Crashed}, the simulated process death
      of the fault harness.
    - {b Crash-consistent commits.} {!put} writes a uniquely named temp
      file, fsyncs it, reads it back and verifies the checksum (catching
      torn writes before they can shadow good data), renames it over the
      destination, and fsyncs the directory. A crash between any two
      syscalls leaves the entry at its previous committed value or the
      new one, never torn.
    - {b Corruption contained.} An entry failing its header or checksum
      check on read is quarantined to [corrupt/] and the query misses,
      so the caller recomputes and the next {!put} repairs the slot.
    - {b Shared roots.} Entry filenames are content addresses (digest of
      namespace × key), concurrent same-key writers race only at the
      atomic rename, and advisory locks with dead-pid takeover serialise
      multi-file maintenance across processes.

    {1 Layout}

    {v
    $YASKSITE_STORE (default ~/.cache/yasksite)
    ├── VERSION                      schema gate ("yasksite-store v1")
    ├── objects/<ns>/<aa>/<digest>   checksummed entries
    ├── corrupt/                     quarantined entries
    └── locks/<name>.lock            advisory locks (content: pid)
    v} *)

type t
(** A handle on one store root (possibly degraded; see {!active} and
    {!writable}). Handles are domain-safe. *)

val open_root : ?io:Yasksite_faults.Io.t -> string -> t
(** [open_root dir] opens (creating if needed) a store rooted at [dir].
    Never raises: an uncreatable root yields a disabled handle, an
    unwritable-but-readable one a read-only handle. [io] routes every
    syscall through a fault injector (default: real I/O). *)

val default_root : unit -> string
(** [$YASKSITE_STORE] if set and non-empty, else
    [$HOME/.cache/yasksite] (temp dir if [HOME] is unset). *)

val default : unit -> t option
(** The process-wide store at {!default_root}, opened on first use.
    [None] when [YASKSITE_NO_STORE] is set to anything but [""]/["0"]
    — the kill switch that keeps every consumer purely in-memory. *)

val reset_default_for_tests : unit -> unit
(** Forget the memoized {!default}. Used by tests only: the environment
    tests re-resolve the default store under a changed environment. *)

val root : t -> string

val active : t -> bool
(** [false] iff the handle is fully disabled (uncreatable root or
    schema mismatch): gets miss and puts drop without touching disk. *)

val writable : t -> bool
(** Whether puts can commit (active and the root accepts writes). *)

(** {1 Entries} *)

val get : t -> ns:string -> key:string -> string option
(** The committed payload for [key] in namespace [ns], or [None] on any
    miss: absent, corrupt (quarantined as a side effect), unreadable,
    or disabled store. Verifies the entry checksum on every read. *)

val put : t -> ns:string -> key:string -> string -> unit
(** Commit [payload] under (ns, key), atomically and durably; on any
    failure (including injected ENOSPC/EIO/torn writes) the previous
    committed value is preserved and the error is only counted.
    Namespaces and keys must not contain tabs or newlines (they are
    mapped to spaces). *)

val delete : t -> ns:string -> key:string -> bool
(** Remove the committed entry under (ns, key), if any. [true] iff an
    entry was actually unlinked. Absorbs filesystem errors like every
    other operation; a disabled or read-only store returns [false]. *)

val fold_ns :
  t ->
  ns:string ->
  init:'a ->
  ('a -> key:string -> payload:string -> 'a) ->
  'a
(** Fold over every healthy committed entry of one namespace — how
    schema-aware maintenance (e.g. flagging stale [kern-v1] payloads)
    enumerates entries without knowing the key set in advance.
    Entries that fail to read or decode are skipped, not quarantined
    (that is {!verify}'s job). Order is unspecified. *)

(** {1 Advisory locks} *)

val with_lock : ?wait_s:float -> t -> name:string -> (unit -> 'a) -> 'a
(** Run [f] holding the advisory lock [name]. A lock file naming a dead
    pid is broken and taken over. If the lock cannot be acquired within
    [wait_s] (default 2s) the function runs anyway — the lock is
    advisory, individual commits are atomic regardless, and liveness
    beats exclusion. On a disabled or read-only store, runs [f]
    directly. *)

(** {1 Maintenance} *)

type verify_report = {
  scanned : int;
  ok : int;
  bad : int;  (** invalid entries found (and quarantined) *)
}

val verify : t -> verify_report
(** Scan every committed entry: header, checksum, and that the filename
    is the content address of the entry's own (ns, key). Invalid
    entries are quarantined. *)

type gc_report = {
  scanned : int;
  removed : int;
  kept : int;
  bytes_removed : int;
  bytes_kept : int;
}

val gc : ?ns:string -> ?max_age_s:float -> ?max_size_bytes:int -> t -> gc_report
(** Expire entries older than [max_age_s], then evict oldest-first
    until at most [max_size_bytes] survive; also sweeps stale temp
    files left by crashed writers. Runs under the ["gc"] lock. [ns]
    scopes the whole collection to one schema namespace (e.g. evict
    compiled kernels without touching tuning results); entries and
    temp files of other namespaces are not even scanned. *)

type usage = { entries : int; bytes : int; corrupt : int }

val usage : t -> usage
(** Committed entries, their total size, and quarantined file count. *)

type ns_usage = {
  ns : string;  (** schema namespace, e.g. ["offsite-v1"], ["kern-v1"] *)
  ns_entries : int;
  ns_bytes : int;
}

val usage_by_ns : t -> ns_usage list
(** Per-schema breakdown of {!usage}'s committed entries, sorted by
    namespace — how [yasksite store stats] shows where the bytes
    (e.g. compiled kernels) live. *)

(** {1 Counters} *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;  (** failed or dropped (read-only) commits *)
  quarantined : int;
  locks_broken : int;  (** stale locks taken over *)
}

val stats : t -> stats
(** This handle's counters (process-local, zero at open). *)

val diagnostics : t -> string list
(** Recorded degradation diagnostics, oldest first (bounded). The store
    never prints; callers decide what to surface. *)
