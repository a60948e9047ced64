module Diagnostic = Diagnostic
module Kernel = Kernel_lint
module Machine = Machine_lint
module Config = Config_lint
module Schedule = Schedule_lint
module Plan = Plan_lint
module Native = Native_lint
module Program = Program_lint

let rules =
  [ ("YS100", Diagnostic.Error, "kernel source does not parse");
    ("YS101", Diagnostic.Error, "declared input field is never read");
    ("YS102", Diagnostic.Warning, "duplicate reference (CSE-merged load)");
    ("YS103", Diagnostic.Error, "division by literal zero");
    ("YS104", Diagnostic.Hint, "division by a symbolic coefficient");
    ("YS105", Diagnostic.Hint, "radius-0 kernel (point-wise map)");
    ("YS106", Diagnostic.Warning, "asymmetric footprint along the streamed \
                                   dimension");
    ("YS107", Diagnostic.Error, "expression reads no field");
    (* YS108 is retired (Spec.v refuses out-of-range fields); never reuse
       the code. *)
    ("YS200", Diagnostic.Error, "machine file does not parse / bad key");
    ("YS201", Diagnostic.Error, "cache capacities shrink outward");
    ("YS202", Diagnostic.Error, "non-positive bandwidth");
    ("YS203", Diagnostic.Error, "non-positive latency");
    ("YS204", Diagnostic.Warning, "cache line / vector fold misalignment");
    ("YS205", Diagnostic.Error, "no cache levels");
    ("YS206", Diagnostic.Warning, "latencies do not increase outward");
    ("YS207", Diagnostic.Error, "non-positive or inconsistent geometry");
    ("YS208", Diagnostic.Warning, "duplicate key in a section");
    ("YS301", Diagnostic.Error, "block working set exceeds every cache \
                                 level");
    ("YS302", Diagnostic.Warning, "fold extent does not divide the grid");
    ("YS303", Diagnostic.Error, "empty search space");
    ("YS304", Diagnostic.Warning, "singleton search space");
    ("YS305", Diagnostic.Error, "block/fold/grid rank mismatch");
    ("YS306", Diagnostic.Warning, "wavefront combined with streaming stores");
    ("YS307", Diagnostic.Warning, "more threads than cores");
    ("YS308", Diagnostic.Warning, "fold product differs from SIMD width");
    ("YS309", Diagnostic.Warning, "wavefront window exceeds the last-level \
                                   cache");
    ("YS400", Diagnostic.Error, "wavefront stagger below the dependence \
                                 distance (forward reach+1)");
    ("YS401", Diagnostic.Error, "temporal wavefront over a multi-field \
                                 kernel");
    (* YS402 is retired (no caller declares periodic halos to the
       schedule analyzer); never reuse the code. *)
    ("YS403", Diagnostic.Error, "input aliases the output under a \
                                 non-pointwise schedule");
    ("YS404", Diagnostic.Error, "input halo thinner than the stencil \
                                 radius");
    ("YS405", Diagnostic.Error, "schedule fold does not match the grid \
                                 layout");
    ("YS406", Diagnostic.Error, "parallel slices do not partition the \
                                 iteration space");
    (* YS407 is retired (no caller passed a pool width); never reuse the
       code. *)
    ("YS408", Diagnostic.Error, "fold extent exceeds the grid extent");
    ("YS409", Diagnostic.Error, "rank/extent mismatch between schedule and \
                                 grids");
    ("YS450", Diagnostic.Error, "sanitizer: overlapping writes to one cell");
    ("YS451", Diagnostic.Error, "sanitizer: read races a write of the same \
                                 pass");
    ("YS452", Diagnostic.Error, "sanitizer: read of a stale cell version");
    ("YS453", Diagnostic.Error, "sanitizer: access outside the allocation");
    ("YS454", Diagnostic.Error, "sanitizer: output cell left unwritten by \
                                 the sweep");
    (* YS455 is retired (no sanitized pass writes a halo cell); never
       reuse the code. *)
    ("YS456", Diagnostic.Error, "sanitizer: executed layout differs from \
                                 the scheduled fold");
    ("YS500", Diagnostic.Error, "plan references a slot or field outside \
                                 the access table");
    ("YS501", Diagnostic.Error, "plan access escapes the allocation \
                                 (offset exceeds the halo)");
    ("YS502", Diagnostic.Error, "plan program is not stack-safe \
                                 (underflow or wrong declared depth)");
    ("YS503", Diagnostic.Warning, "plan access-table slot is never read \
                                   (dead load)");
    ("YS504", Diagnostic.Warning, "duplicate plan access-table entries");
    ("YS505", Diagnostic.Error, "plan program leaves no result or dead \
                                 values on the stack");
    ("YS506", Diagnostic.Error, "plan references an unresolved symbolic \
                                 coefficient");
    ("YS507", Diagnostic.Error, "plan divides by a provably zero operand");
    ("YS508", Diagnostic.Warning, "plan multiplies by a provably zero \
                                   operand (dead arithmetic)");
    ("YS509", Diagnostic.Error, "plan temporary out of range, saved twice, \
                                 recalled before its save or miscounted");
    ("YS510", Diagnostic.Error, "plan FLOP/byte counts disagree with the \
                                 kernel analysis");
    ("YS511", Diagnostic.Error, "certification: traced traffic disagrees \
                                 with the certified counts");
    ("YS600", Diagnostic.Error, "emitted kernel unit does not parse / \
                                 deviates from the generated shape");
    ("YS601", Diagnostic.Error, "coefficient literal does not round-trip \
                                 the plan coefficient bit-exactly");
    ("YS602", Diagnostic.Error, "kernel expression structure diverges from \
                                 the plan (operation order/associativity)");
    ("YS603", Diagnostic.Error, "dropped or extra term in an emitted sum");
    ("YS604", Diagnostic.Error, "address shift disagrees with the \
                                 specialization variant");
    ("YS605", Diagnostic.Error, "load reads the wrong access-table slot");
    ("YS606", Diagnostic.Error, "addressing mode disagrees with the \
                                 variant's unit-stride flag");
    ("YS607", Diagnostic.Error, "emitted access escapes the certified halo \
                                 bounds");
    ("YS608", Diagnostic.Error, "output addressing disagrees with the \
                                 variant (pad or stride mode)");
    (* YS609 is retired (units hold one kernel); never reuse the code. *)
    ("YS610", Diagnostic.Error, "kernel registration name/ABI mismatch");
    ("YS611", Diagnostic.Error, "prelude binds the wrong source slot");
    ("YS612", Diagnostic.Error, "plan cannot be symbolically evaluated for \
                                 validation");
    ("YS613", Diagnostic.Error, "kernel binds or uses the wrong temporary");
    ("YS700", Diagnostic.Error, "program source does not parse / malformed \
                                 stage");
    ("YS701", Diagnostic.Error, "stage reads a field that is neither an \
                                 input nor a stage");
    ("YS702", Diagnostic.Error, "stage dependencies form a cycle");
    ("YS703", Diagnostic.Error, "duplicate or reserved input/stage name");
    ("YS704", Diagnostic.Error, "input grid halo thinner than the \
                                 program's accumulated requirement");
    ("YS705", Diagnostic.Error, "declared output names no stage");
    ("YS706", Diagnostic.Warning, "dead stage (no output reads it)") ]

let exit_code = Diagnostic.exit_code

exception Gate_error of string

let () =
  Printexc.register_printer (function
    | Gate_error msg -> Some ("Lint.Gate_error: " ^ msg)
    | _ -> None)

let gate ~context diagnostics =
  match Diagnostic.errors diagnostics with
  | [] -> ()
  | errs ->
      raise
        (Gate_error
           (Printf.sprintf "%s: %s\n%s" context
              (Diagnostic.summary diagnostics)
              (String.trim (Diagnostic.render_list errs))))
