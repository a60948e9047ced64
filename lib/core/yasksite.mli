(** YaskSite — stencil optimization with the Execution–Cache–Memory
    model, applied to explicit ODE methods (OCaml reproduction of the
    CGO 2021 system).

    This module is the public facade. The typical flow is:

    {[
      open Yasksite

      (* 1. Describe machine and kernel. *)
      let machine = Machine.scaled ~factor:8 Machine.cascade_lake
      let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt
      let k = kernel ~machine ~dims:[| 96; 96; 96 |] spec

      (* 2. Ask the analytic model, without running anything. *)
      let p = predict k ~config:(Config.v ~threads:8 ())

      (* 3. Let the advisor pick tuning parameters analytically. *)
      let best, _ = autotune k ~threads:8

      (* 4. Validate on the simulated machine. *)
      let m = measure k ~config:best
    ]}

    Submodules re-export the full API of each subsystem library. *)

(** {1 Subsystem re-exports} *)

module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Machine_file = Yasksite_arch.Machine_file
module Grid = Yasksite_grid.Grid

module Stencil : sig
  module Expr = Yasksite_stencil.Expr
  module Spec = Yasksite_stencil.Spec
  module Analysis = Yasksite_stencil.Analysis
  module Dsl = Yasksite_stencil.Dsl
  module Suite = Yasksite_stencil.Suite

  module Plan = Yasksite_stencil.Plan
  (** The flat kernel-plan IR every stencil lowers to; its fingerprint
      keys the {!Model_cache} and tuner checkpoints. *)

  module Lower = Yasksite_stencil.Lower
  (** Lowering to {!Plan} and binding plans to concrete grids (the
      default execution backend of {!Engine.Sweep}). *)

  module Codegen = Yasksite_stencil.Codegen
  (** Plan→native source emission: the pure front half of
      {!Engine.Sweep}'s codegen backend ({!Engine.Native} builds,
      loads and caches what this emits). *)

  module Kernel_ast = Yasksite_stencil.Kernel_ast
  (** Checked AST of the units {!Codegen} emits — the shared grammar
      of the YS6xx translation validator ({!Lint.Native}) and the
      seeded miscompile injector ({!Faults.Miscompile}). *)

  module Gen = Yasksite_stencil.Gen
  module Parser = Yasksite_stencil.Parser

  module Program = Yasksite_stencil.Program
  (** Multi-stage stencil programs: named stages over named fields
      forming a DAG, with halo-plan accumulation and stage fusion
      ({!Engine.Prog} executes them; {!Advisor.rank_partitions} ranks
      their fuse/materialize partitions with the ECM model). *)
end

module Config = Yasksite_ecm.Config
module Model = Yasksite_ecm.Model
module Incore = Yasksite_ecm.Incore
module Lc = Yasksite_ecm.Lc
module Advisor = Yasksite_ecm.Advisor

module Model_cache = Yasksite_ecm.Cache
(** Memoization of ECM model evaluations (bounded, domain-safe LRU). *)

module Cachesim = Yasksite_cachesim.Hierarchy

module Pool = Yasksite_util.Pool
(** Reusable domain pool backing every [?pool] parameter in the API. *)

module Engine : sig
  module Sweep = Yasksite_engine.Sweep
  module Wavefront = Yasksite_engine.Wavefront
  module Measure = Yasksite_engine.Measure

  module Sanitizer = Yasksite_engine.Sanitizer
  (** Shadow-memory sweep sanitizer (YS45x traps): the dynamic
      counterpart of the {!Lint.Schedule} analyzer. *)

  module Cert = Yasksite_engine.Cert
  (** Safety-certificate store: (plan × layout × halo × blocking)
      tuples proven safe by the YS5xx verifier select the sanitizer's
      unchecked fast path. *)

  module Certify = Yasksite_engine.Certify
  (** Certification pipeline: static YS5xx proof plus YS511 traced
      cross-validation, producing {!Cert} entries. *)

  module Native = Yasksite_engine.Native
  (** Compile/load/cache machinery behind [Sweep.Codegen_backend]:
      kernels compiled once per machine into the store's [kern-v1]
      schema, with graceful fallback to the plan interpreter. *)

  module Prog = Yasksite_engine.Prog
  (** Topological executor for {!Stencil.Program}: one extended sweep
      per stage, intermediates materialized with exactly the halo the
      program's consumer chains require. *)
end

module Tuner = Yasksite_tuner.Tuner
module Lint = Yasksite_lint.Lint

module Faults : sig
  module Plan = Yasksite_faults.Plan
  module Policy = Yasksite_faults.Policy
  module Retry = Yasksite_faults.Retry
  module Checkpoint = Yasksite_faults.Checkpoint

  module Io = Yasksite_faults.Io
  (** Seeded filesystem-fault injection (ENOSPC/EIO/torn writes/crash
      points) — the harness the {!Store} crash-consistency property is
      proven under. *)

  module Miscompile = Yasksite_faults.Miscompile
  (** Seeded miscompile injector: structural mutations of emitted
      kernel source, each of which the YS6xx translation validator
      ({!Lint.Native}) must reject with its expected code. *)
end

module Store = Yasksite_store.Store
(** Crash-safe persistent artifact store: ECM predictions, tuner
    checkpoints, Offsite tuning memos and safety certificates survive
    the process through it. Degrades, never fails: an absent,
    read-only or corrupted store root leaves every pipeline's results
    bit-identical to a store-less run. *)

module Ode : sig
  module Tableau = Yasksite_ode.Tableau
  module Ivp = Yasksite_ode.Ivp
  module Rk = Yasksite_ode.Rk
  module Pde = Yasksite_ode.Pde
end

module Offsite : sig
  module Variant = Yasksite_offsite.Variant
  module Executor = Yasksite_offsite.Executor
  include module type of Yasksite_offsite.Offsite
end

(** {1 High-level kernel API} *)

type kernel = private {
  machine : Machine.t;
  spec : Yasksite_stencil.Spec.t;
  info : Yasksite_stencil.Analysis.t;
  dims : int array;
}

val kernel :
  machine:Machine.t -> dims:int array -> Yasksite_stencil.Spec.t -> kernel
(** Bind a (fully resolved) stencil to a machine and grid size. Raises
    [Invalid_argument] on rank mismatch or unresolved coefficients. *)

val predict : kernel -> config:Config.t -> Model.prediction
(** Evaluate the ECM model: no code runs. *)

val measure :
  ?sanitize:bool -> kernel -> config:Config.t -> Yasksite_engine.Measure.t
(** Execute on the simulated machine and report observed performance.
    [sanitize] (default [false]) runs every access through the
    shadow-memory {!Engine.Sanitizer}; an illegal schedule raises
    {!Engine.Sanitizer.Trap} instead of measuring garbage. *)

val autotune : kernel -> threads:int -> Config.t * Model.prediction
(** Analytically select the best configuration (the YaskSite pitch:
    model-driven, zero kernel runs). Candidates the schedule-legality
    analyzer ({!Lint.Schedule}) rejects are pruned before ranking. *)

val report : ?sanitize:bool -> kernel -> config:Config.t -> string
(** Human-readable comparison of prediction and measurement for one
    configuration, including the ECM decomposition and traffic.
    [sanitize] as in {!measure}. *)

val version : string
