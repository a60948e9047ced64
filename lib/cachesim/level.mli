(** One set-associative cache level with true-LRU replacement.

    Lines are identified by their line address (byte address divided by
    the line size). The level does not know about the rest of the
    hierarchy; {!Hierarchy} composes levels according to each level's
    fill policy. *)

type t

val create : Yasksite_arch.Cache_level.t -> effective_size:int -> t
(** [create spec ~effective_size] builds a level with [spec]'s
    associativity and line size but [effective_size] bytes of capacity
    (the per-core share of a shared level). [effective_size] must be at
    least one set's worth of lines. *)

val probe : t -> line:int -> bool
(** Lookup; refreshes LRU on hit. Does not fill. *)

val is_present : t -> line:int -> bool
(** Lookup without touching LRU state (for invariant checks). *)

val insert : t -> line:int -> dirty:bool -> (int * bool) option
(** Insert (or refresh) a line. If the line was already present its dirty
    bit is OR-ed and LRU refreshed, returning [None]. Otherwise the LRU
    victim of the target set, if any, is returned as
    [Some (line, was_dirty)]. *)

val mark_dirty : t -> line:int -> unit
(** Set the dirty bit of a resident line; no-op if absent. *)

val extract : t -> line:int -> bool option
(** Remove a line (victim-cache hit path); returns its dirty bit, or
    [None] if absent. *)

val resident_lines : t -> int
(** Number of currently valid lines (for tests). *)

val capacity_lines : t -> int
