(** Seeded I/O fault plan: the filesystem counterpart of {!Plan}.

    The persistent store ({!Yasksite_store.Store}) routes every syscall
    of a commit through one {!draw}, so a deterministic plan can make an
    individual write run out of space ([ENOSPC]), fail with [EIO], land
    only a prefix of its buffer (a torn write that {e reports} success),
    or kill the simulated process between two syscalls — precisely the
    crash points a crash-consistency property has to enumerate.

    All randomness derives from the plan seed through
    {!Yasksite_util.Prng}: equal plans draw bit-identical fault
    sequences, and the uniforms consumed per operation are independent
    of earlier outcomes, so fault streams never shift under replay. *)

(** A guarded syscall class, in the order a store commit issues them. *)
type op =
  | Mkdir
  | Open_write
  | Write
  | Fsync
  | Read
  | Rename
  | Fsync_dir
  | Unlink

val op_name : op -> string

type failure = Enospc | Eio

(** What happens to one guarded syscall. *)
type outcome =
  | Proceed  (** the syscall executes normally *)
  | Torn of float
      (** a write lands only this fraction of its buffer but reports
          success (the classic torn-write hazard) *)
  | Fail of failure  (** the syscall fails with this error *)
  | Crash  (** the process dies here: the caller raises {!Crashed} *)

exception Crashed of { op : op; at : int }
(** Simulated process death. Deliberately NOT absorbed by the store's
    degraded-mode handling: the crash-consistency harness catches it in
    place of a real kill. *)

type plan = {
  seed : int;
  enospc_rate : float;  (** per-allocation probability of [ENOSPC] *)
  eio_rate : float;  (** per-access probability of [EIO] *)
  torn_rate : float;  (** per-write probability of a torn write *)
  crash_at : int option;
      (** deterministic crash at the n-th guarded syscall (1-based);
          the enumeration knob of the crash-consistency property *)
}

val plan :
  ?seed:int ->
  ?enospc_rate:float ->
  ?eio_rate:float ->
  ?torn_rate:float ->
  ?crash_at:int ->
  unit ->
  plan
(** Constructor with validation: rates in [0, 1], [crash_at >= 1].
    Defaults are all-zero (no faults, seed 42). *)

type t
(** Mutable injector: plan, seeded stream, op counter. *)

val injector : plan -> t

val real : unit -> t
(** A pass-through injector (the all-zero plan): real I/O, no faults. *)

val draw : t -> op -> outcome
(** Outcome of the next guarded syscall of class [op]. *)

val ops : t -> int
(** Guarded syscalls so far. *)
