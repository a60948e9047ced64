module Machine = Yasksite_arch.Machine
module Cache_level = Yasksite_arch.Cache_level
module Machine_file = Yasksite_arch.Machine_file
module Grid = Yasksite_grid.Grid

module Stencil = struct
  module Expr = Yasksite_stencil.Expr
  module Spec = Yasksite_stencil.Spec
  module Analysis = Yasksite_stencil.Analysis
  module Dsl = Yasksite_stencil.Dsl
  module Suite = Yasksite_stencil.Suite
  module Plan = Yasksite_stencil.Plan
  module Lower = Yasksite_stencil.Lower
  module Codegen = Yasksite_stencil.Codegen
  module Kernel_ast = Yasksite_stencil.Kernel_ast
  module Gen = Yasksite_stencil.Gen
  module Parser = Yasksite_stencil.Parser
  module Program = Yasksite_stencil.Program
end

module Config = Yasksite_ecm.Config
module Model = Yasksite_ecm.Model
module Incore = Yasksite_ecm.Incore
module Lc = Yasksite_ecm.Lc
module Advisor = Yasksite_ecm.Advisor
module Model_cache = Yasksite_ecm.Cache
module Cachesim = Yasksite_cachesim.Hierarchy
module Pool = Yasksite_util.Pool

module Engine = struct
  module Sweep = Yasksite_engine.Sweep
  module Wavefront = Yasksite_engine.Wavefront
  module Measure = Yasksite_engine.Measure
  module Sanitizer = Yasksite_engine.Sanitizer
  module Cert = Yasksite_engine.Cert
  module Certify = Yasksite_engine.Certify
  module Native = Yasksite_engine.Native
  module Prog = Yasksite_engine.Prog
end

module Tuner = Yasksite_tuner.Tuner
module Lint = Yasksite_lint.Lint

module Faults = struct
  module Plan = Yasksite_faults.Plan
  module Policy = Yasksite_faults.Policy
  module Retry = Yasksite_faults.Retry
  module Checkpoint = Yasksite_faults.Checkpoint
  module Io = Yasksite_faults.Io
  module Miscompile = Yasksite_faults.Miscompile
end

module Store = Yasksite_store.Store

module Ode = struct
  module Tableau = Yasksite_ode.Tableau
  module Ivp = Yasksite_ode.Ivp
  module Rk = Yasksite_ode.Rk
  module Pde = Yasksite_ode.Pde
end

module Offsite = struct
  module Variant = Yasksite_offsite.Variant
  module Executor = Yasksite_offsite.Executor
  include Yasksite_offsite.Offsite
end

type kernel = {
  machine : Machine.t;
  spec : Yasksite_stencil.Spec.t;
  info : Yasksite_stencil.Analysis.t;
  dims : int array;
}

let kernel ~machine ~dims spec =
  if Array.length dims <> spec.Yasksite_stencil.Spec.rank then
    invalid_arg "Yasksite.kernel: dims rank mismatch";
  (match Yasksite_stencil.Expr.coeff_names spec.Yasksite_stencil.Spec.expr with
  | [] -> ()
  | n :: _ ->
      invalid_arg
        (Printf.sprintf "Yasksite.kernel: unresolved coefficient %S" n));
  { machine;
    spec;
    info = Yasksite_stencil.Analysis.of_spec spec;
    dims = Array.copy dims }

let predict k ~config = Model.predict k.machine k.info ~dims:k.dims ~config

let measure ?(sanitize = false) k ~config =
  Yasksite_engine.Measure.stencil_sweep ~sanitize k.machine k.spec ~dims:k.dims
    ~config

let autotune k ~threads =
  Advisor.best
    ~filter:(Lint.Schedule.legal k.info ~dims:k.dims)
    k.machine k.info ~dims:k.dims ~threads

let report ?(sanitize = false) k ~config =
  let p = predict k ~config in
  let m = measure ~sanitize k ~config in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "kernel %s on %s, grid %s, %s\n"
       k.spec.Yasksite_stencil.Spec.name k.machine.Machine.name
       (String.concat "x" (Array.to_list (Array.map string_of_int k.dims)))
       (Config.describe config));
  Buffer.add_string buf (Printf.sprintf "  predicted: %s\n" (Model.summary p));
  Buffer.add_string buf
    (Printf.sprintf
       "  measured:  T=%.1f cy/CL (%.2f GLUP/s core, %.2f GLUP/s chip, %.1f \
        B/LUP mem)\n"
       m.Yasksite_engine.Measure.cycles_per_cl
       (m.Yasksite_engine.Measure.lups_core /. 1e9)
       (m.Yasksite_engine.Measure.lups_chip /. 1e9)
       m.Yasksite_engine.Measure.mem_bytes_per_lup);
  Buffer.add_string buf
    (Printf.sprintf "  error:     %+.1f%% (cycles, predicted vs measured)\n"
       (100.0
       *. Yasksite_util.Stats.rel_error ~predicted:p.Model.t_ecm
            ~measured:m.Yasksite_engine.Measure.cycles_per_cl));
  Buffer.contents buf

let version = "1.0.0"
