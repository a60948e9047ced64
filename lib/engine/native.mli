(** Build, load and cache the kernels {!Yasksite_stencil.Codegen}
    emits — the machine half of the [Codegen_backend].

    A kernel is resolved per specialization key (plan fingerprint ×
    layout/pad variant): first from a process-local memo, then from the
    persistent store (namespace ["kern-v1"], compiled [.cmxs] bytes
    keyed by specialization key × compiler version × flags — so a
    kernel is compiled once per machine, ever), and only then by an
    out-of-process [ocamlfind ocamlopt -shared] build whose result is
    written through to the store and loaded with
    [Dynlink.loadfile_private].

    {b Degraded mode.} Resolution never fails a pipeline: a missing
    toolchain, bytecode host, YS5xx verifier rejection, unsupported
    plan body, compile/load error or read-only store all yield [None]
    (callers fall back to the plan interpreter) after a single
    [stderr] warning line per process. Failures are memoized per key;
    a corrupt or stale store payload is detected by its header or by
    the failing load and repaired by recompilation.

    The persistent backing is opt-in ([{!set_store}]): library use
    stays hermetic until the CLI attaches the default store. *)

type stats = {
  compiles : int;  (** out-of-process compiler invocations *)
  compile_errors : int;
  store_hits : int;  (** kernels revived from the persistent store *)
  loads : int;  (** successful Dynlink loads *)
  load_errors : int;  (** failed loads (corrupt payloads recompile) *)
  fallbacks : int;  (** resolutions that fell back to the interpreter *)
  gate_rejections : int;  (** plans the YS5xx verifier refused *)
  validations : int;  (** YS6xx translation-validator runs *)
  validator_rejections : int;
      (** emitted sources the YS6xx validator refused (each also falls
          back to the interpreter) *)
}

val store_ns : string
(** ["kern-v1"] — the store schema holding compiled kernel bytes. *)

val kern_for :
  plan:Yasksite_stencil.Plan.t ->
  inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t ->
  Yasksite_stencil.Codegen.kern_row option
(** The compiled kernel for [plan] specialized to these grids' variant,
    or [None] when the codegen path is unavailable for any reason (see
    the degraded-mode contract above). Safe to call from pool slices;
    resolution is serialized, memo hits are a table lookup. *)

val available : unit -> bool
(** Whether kernels can be built and loaded here (native Dynlink and a
    working [ocamlfind ocamlopt]). Probed once per process. *)

val set_store : Yasksite_store.Store.t option -> unit
(** Attach ([Some s]) or detach ([None], the initial state) the
    persistent backing for compiled kernels. *)

(** {1 Translation validation (YS6xx)}

    Every resolution — memo miss, store revival, fresh compile — runs
    the emitted source through {!Yasksite_lint.Native_lint} before any
    compiler or [Dynlink] sees it; a rejection degrades to the
    interpreter like every other failure. The process-local memo runs
    the validator at most once per key; no verdict is kept on disk. *)

val set_source_transform : (string -> string) option -> unit
(** Rewrite the emitted source before validation (and compilation).
    [None] (the initial state) disables. Cleared by {!reset_for_tests}.
    Used by tests only: the YS6xx tests inject {!Yasksite_faults.Miscompile}
    mutants into the real resolution path through it. *)

(** {1 Stale-payload maintenance}

    [kern-v1] payloads carry a metadata header (codegen ABI, compiler
    version, compile flags). The store key already binds the
    toolchain, so stale entries are unreachable — these helpers let
    store tooling find and drop them. *)

val toolchain_id : unit -> (string * string list) option
(** The probed [(compiler_version, compile_flags)], or [None] when no
    kernel can be built here. *)

val payload_stale : toolchain:(string * string list) option -> string -> bool
(** Whether a raw [kern-v1] payload is stale: headerless (legacy), a
    different codegen ABI, or — when [toolchain] is known — a
    different compiler version or flag set. *)

val stale_kernels : Yasksite_store.Store.t -> string list
(** Store keys of stale [kern-v1] entries under the probed
    toolchain. *)

val gc_stale : Yasksite_store.Store.t -> int
(** Delete every stale [kern-v1] entry; returns how many were
    removed. *)

val stats : unit -> stats
(** Process-wide kernel-cache counters. *)

val reset_for_tests : unit -> unit
(** Forget everything: memo, counters, the warning latch, the toolchain
    probe and the attached store — so a test can exercise resolution
    under a changed environment ([PATH], private store roots). *)
