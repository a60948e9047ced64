(* Seeded I/O fault plan: the filesystem counterpart of [Plan]. The
   persistent store routes every syscall of a commit through one guarded
   draw, so a deterministic plan can make any individual write run out
   of space, return EIO, land only a prefix of its buffer ("torn"
   write), or kill the process between two syscalls — the exact crash
   points a crash-consistency proof has to enumerate. All randomness
   derives from the plan seed through {!Yasksite_util.Prng}; equal
   plans draw bit-identical fault sequences. *)

type op =
  | Mkdir
  | Open_write
  | Write
  | Fsync
  | Read
  | Rename
  | Fsync_dir
  | Unlink

let op_name = function
  | Mkdir -> "mkdir"
  | Open_write -> "open"
  | Write -> "write"
  | Fsync -> "fsync"
  | Read -> "read"
  | Rename -> "rename"
  | Fsync_dir -> "fsync-dir"
  | Unlink -> "unlink"

type failure = Enospc | Eio

type outcome =
  | Proceed
  | Torn of float
  | Fail of failure
  | Crash

exception Crashed of { op : op; at : int }

let () =
  Printexc.register_printer (function
    | Crashed { op; at } ->
        Some
          (Printf.sprintf "Yasksite_faults.Io.Crashed(%s, op %d)" (op_name op)
             at)
    | _ -> None)

type plan = {
  seed : int;
  enospc_rate : float;
  eio_rate : float;
  torn_rate : float;
  crash_at : int option;
}

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Io.plan: %s must be in [0, 1]" name)

let plan ?(seed = 42) ?(enospc_rate = 0.0) ?(eio_rate = 0.0)
    ?(torn_rate = 0.0) ?crash_at () =
  check_rate "enospc_rate" enospc_rate;
  check_rate "eio_rate" eio_rate;
  check_rate "torn_rate" torn_rate;
  (match crash_at with
  | Some n when n < 1 -> invalid_arg "Io.plan: crash_at must be >= 1"
  | _ -> ());
  { seed; enospc_rate; eio_rate; torn_rate; crash_at }

let none = plan ()

let is_benign p =
  p.enospc_rate = 0.0 && p.eio_rate = 0.0 && p.torn_rate = 0.0
  && p.crash_at = None

type t = {
  plan : plan;
  rng : Yasksite_util.Prng.t;
  mutable ops : int;
}

let injector p = { plan = p; rng = Yasksite_util.Prng.create ~seed:p.seed; ops = 0 }

let real () = injector none

let ops t = t.ops

(* Which failure modes apply to which syscalls: allocation-backed writes
   can hit ENOSPC; every medium access can hit EIO; only writes tear. *)
let can_enospc = function Open_write | Write | Mkdir -> true | _ -> false

let can_eio = function
  | Write | Fsync | Read | Rename | Fsync_dir -> true
  | _ -> false

let can_tear = function Write -> true | _ -> false

let draw t op =
  t.ops <- t.ops + 1;
  match t.plan.crash_at with
  | Some n when t.ops >= n -> Crash
  | _ ->
      if is_benign t.plan then Proceed
      else begin
        (* One uniform per applicable mode, drawn unconditionally so the
           stream consumed per op is independent of earlier outcomes. *)
        let u_enospc = Yasksite_util.Prng.float t.rng in
        let u_eio = Yasksite_util.Prng.float t.rng in
        let u_torn = Yasksite_util.Prng.float t.rng in
        let u_frac = Yasksite_util.Prng.float t.rng in
        if can_enospc op && u_enospc < t.plan.enospc_rate then Fail Enospc
        else if can_eio op && u_eio < t.plan.eio_rate then Fail Eio
        else if can_tear op && u_torn < t.plan.torn_rate then Torn u_frac
        else Proceed
      end
