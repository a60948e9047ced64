(** A core's view of the full cache hierarchy, composing {!Level}s
    according to their fill policies:

    - [Inclusive] levels are filled on every miss path through them and
      receive write-backs from the level above;
    - [Victim] levels (AMD-Rome-style L3) are filled only by evictions
      from the level above; a hit in a victim level moves the line back
      up and removes it there.

    All writes are write-allocate / write-back. Shared levels are
    modelled with their per-active-core share of the capacity, which is
    how the ECM layer-condition analysis treats them too, so simulator
    and model see the same effective sizes.

    A hierarchy is mutable, unsynchronised state for one core's access
    stream in program order: drive it from one domain at a time (a
    traced [Sweep.run] ignores its pool for this reason). *)

type t

type counters = {
  accesses : int;  (** loads + stores issued by the core *)
  loads : int;
  stores : int;
  hits : int array;  (** per level *)
  misses : int array;  (** per level, counted only when probed *)
  writebacks : int array;
      (** dirty evictions leaving each level (towards the next) *)
  mem_loads : int;  (** lines fetched from memory *)
  mem_writebacks : int;  (** dirty lines written back to memory *)
  nt_stores : int;  (** streaming stores issued *)
  nt_lines : int;  (** lines' worth of streaming data sent to memory *)
}

val create : ?active_cores:int -> Yasksite_arch.Machine.t -> t
(** [create m] builds the hierarchy of machine [m] as seen by one core
    when [active_cores] (default 1) cores are running: each shared
    level's capacity is divided by [min active_cores shared_by]. *)

val read : t -> addr:int -> unit
(** Issue a load of the byte at [addr]. *)

val write : t -> addr:int -> unit
(** Issue a store to the byte at [addr] (write-allocate: may fetch). *)

val write_nt : t -> addr:int -> unit
(** Non-temporal (streaming) store: the line bypasses the hierarchy and
    goes straight to memory, without write-allocate. Following Intel
    MOVNT semantics, every resident copy of the line is invalidated, and
    a dirty copy is first written back to memory, so the next load of
    the line misses. The stored bytes are accumulated and charged to
    the memory boundary once per line's worth of stores. *)

val counters : t -> counters

val reset_counters : t -> unit
(** Zero the counters, keeping cache contents (to skip warm-up sweeps). *)

val traffic_lines : t -> level:int -> int
(** Lines moved between level [level] (0-based, 0 = L1) and the next
    level out — misses of [level] plus write-backs from [level]. For the
    last level this is memory traffic. *)

val line_bytes : t -> int

val levels : t -> int

val flush : t -> unit
(** Invalidate all contents and reset counters. Used by tests only: the
    flush and streaming-store tests restart from a cold hierarchy. *)
