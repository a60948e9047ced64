(** One set-associative cache level with true-LRU replacement.

    Lines are identified by their line address (byte address divided by
    the line size), a non-negative int. The level does not know about
    the rest of the hierarchy; {!Hierarchy} composes levels according to
    each level's fill policy.

    Each set keeps its ways in recency order, most recently used first,
    in one [int] array. An entry is [line lsl 1 lor dirty], and [-1]
    marks an invalid way. A set's valid entries always form a prefix of
    it, so the last entry of a full set is its LRU line. A line's set is
    [line mod sets].

    Every operation returns a plain [int] or [bool], so the simulator's
    miss path allocates nothing. *)

type t

val create : Yasksite_arch.Cache_level.t -> effective_size:int -> t
(** [create spec ~effective_size] builds a level with [spec]'s
    associativity and line size but [effective_size] bytes of capacity
    (the per-core share of a shared level). [effective_size] must be at
    least one set's worth of lines. *)

val probe : t -> line:int -> dirty:bool -> bool
(** Lookup without fill. On a hit the line becomes the most recent of
    its set and [dirty] is OR-ed into its dirty bit, so a write hit
    scans the set once. *)

val is_present : t -> line:int -> bool
(** Lookup without touching the recency order. Used by tests only: the
    level LRU, extract and reuse tests probe residency with it. *)

val insert : t -> line:int -> dirty:bool -> int
(** Insert (or refresh) [line] as the most recent line of its set. If
    the line was already present, its dirty bit is OR-ed with [dirty]
    and the result is [-1]. Otherwise the set's last entry is dropped
    and returned: the LRU victim's [line lsl 1 lor dirty] when the set
    was full, else [-1]. *)

val extract : t -> line:int -> int
(** Remove [line] (a victim-level hit, or a streaming store's
    invalidation): [1] if it was dirty, [0] if clean, [-1] if absent.
    The entries after it move one way forward and the set's last way
    becomes invalid, so the next insert into the set evicts nothing. *)

val resident_lines : t -> int
(** Number of currently valid lines. Used by tests only: the level
    basics test checks occupancy with it. *)

val capacity_lines : t -> int
(** Lines the level holds. Used by tests only: the level basics test
    checks the capacity of a built level with it. *)
