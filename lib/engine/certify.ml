(* Full certification pipeline: static YS5xx proof + dynamic YS511
   cross-validation -> a Cert entry.

   The static half is Lint.Plan_lint over the lowered plan and the
   caller's concrete grids (bounds transfer across extents, so the
   certificate covers every problem size with the same layout/halo).
   The dynamic half re-derives the certified traffic counts from an
   actually traced execution: a small proxy sweep — same layout, same
   halo, same blocking config, tiny extents — runs against a cache
   hierarchy, and the issued loads/stores must equal points x the
   plan's loads/stores per point. The simulator counts
   issued accesses regardless of hits, so any machine model works;
   the scaled test chip keeps the proxy cheap. This breaks the
   circularity the ECM inputs had: the static counts feeding the model
   are checked against the trace-driven simulator instead of being
   trusted by construction. *)

module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Hierarchy = Yasksite_cachesim.Hierarchy
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Plan_lint = Yasksite_lint.Plan_lint
module D = Yasksite_lint.Diagnostic

(* Proxy extents: the smallest grid that exercises every blocking
   remainder path is unnecessary here — traffic counts are shape-exact
   for any extents, so keep it tiny but larger than the halo and wide
   enough for the fold (YS408 rejects folds exceeding the extents). *)
let proxy_dims ~rank ~halo ~(config : Config.t) =
  let fold = Config.fold_extents config ~rank in
  Array.init rank (fun i -> max fold.(i) (max 4 ((2 * halo.(i)) + 2)))

let validate_traffic ?(machine = Machine.test_chip) spec ~plan
    ~(config : Config.t) =
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let rank = spec.Spec.rank in
  let dims = proxy_dims ~rank ~halo ~config in
  let layout = Grid.layout_of_fold config.Config.fold in
  let space = Grid.fresh_space () in
  let mk () =
    let g = Grid.create ~space ~halo ~layout ~dims () in
    Grid.fill_all g 1.0;
    g
  in
  let inputs = Array.init spec.Spec.n_fields (fun _ -> mk ()) in
  let output = mk () in
  let trace = Hierarchy.create machine in
  match Sweep.run ~plan ~trace ~config spec ~inputs ~output with
  | exception Yasksite_lint.Lint.Gate_error msg ->
      (* A config the proxy cannot represent (e.g. fold wider than any
         legal proxy extent) is uncertifiable, not a crash. *)
      [ D.errorf ~code:"YS511"
          "the proxy validation sweep was refused by the schedule gate: %s"
          msg ]
  | stats ->
  let c = Plan_lint.counts plan in
  let ctr = Hierarchy.counters trace in
  (* [stores] counts streaming stores too ([nt_stores] is a subset). *)
  let observed_stores = ctr.Hierarchy.stores in
  let ds = ref [] in
  if ctr.Hierarchy.loads <> stats.Sweep.points * c.Plan_lint.loads then
    ds :=
      D.errorf ~code:"YS511"
        "the traced proxy sweep issued %d loads but the certified counts \
         predict %d (%d points x %d loads/point)"
        ctr.Hierarchy.loads
        (stats.Sweep.points * c.Plan_lint.loads)
        stats.Sweep.points c.Plan_lint.loads
      :: !ds;
  if observed_stores <> stats.Sweep.points * c.Plan_lint.stores then
    ds :=
      D.errorf ~code:"YS511"
        "the traced proxy sweep issued %d stores but the certified counts \
         predict %d (%d points x %d stores/point)"
        observed_stores
        (stats.Sweep.points * c.Plan_lint.stores)
        stats.Sweep.points c.Plan_lint.stores
      :: !ds;
  List.rev !ds

let certify ?machine ?plan spec ~inputs ~output ~config =
  let plan = match plan with Some p -> p | None -> Lower.lower spec in
  let info = Analysis.of_spec spec in
  let static = Plan_lint.check ~info plan ~inputs ~output in
  if D.has_errors static then Error static
  else begin
    let dynamic = validate_traffic ?machine spec ~plan ~config in
    if D.has_errors dynamic then Error (static @ dynamic)
    else begin
      let entry =
        { Cert.key = Cert.key ~plan ~inputs ~output ~config;
          fingerprint = plan.Plan.fingerprint;
          loads_per_point = (Plan_lint.counts plan).Plan_lint.loads }
      in
      Cert.insert entry;
      Ok entry
    end
  end

let ensure ?machine ?plan spec ~inputs ~output ~config =
  let plan = match plan with Some p -> p | None -> Lower.lower spec in
  Cert.mem (Cert.key ~plan ~inputs ~output ~config)
  ||
  match certify ?machine ~plan spec ~inputs ~output ~config with
  | Ok _ -> true
  | Error _ -> false
