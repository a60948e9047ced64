module Grid = Yasksite_grid.Grid
module Analysis = Yasksite_stencil.Analysis
module Expr = Yasksite_stencil.Expr
module Kplan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Pde = Yasksite_ode.Pde
module Sweep = Yasksite_engine.Sweep
module Lint = Yasksite_lint.Lint
module Config = Yasksite_ecm.Config

type compiled = {
  kernel : Variant.kernel;
  (* Input buffers that are read at non-zero offsets and therefore need a
     halo refresh before the kernel runs (periodic problems only). *)
  halo_inputs : Variant.buffer list;
  (* The kernel's lowered plan, computed once at creation. *)
  plan : Kplan.t;
}

type t = {
  pde : Pde.t;
  variant : Variant.t;
  mutable state : Grid.t;
  mutable next_state : Grid.t;
  others : (Variant.buffer * Grid.t) list; (* stages and scratch *)
  kernels : compiled list;
  mutable steps_done : int;
}

let stage_boundary_value = function
  | Pde.Dirichlet _ -> Some 0.0
  | Pde.Periodic -> None

let grid_of t = function
  | Variant.State -> t.state
  | Variant.Next_state -> t.next_state
  | b -> List.assoc b t.others

let create (pde : Pde.t) (variant : Variant.t) =
  (* Refuse variants whose stage kernels the model cannot represent
     (unused inputs, zero divides, ...): catching them here keeps every
     downstream sweep and prediction on well-formed kernels. *)
  List.iter
    (fun (k : Variant.kernel) ->
      Lint.gate
        ~context:
          (Printf.sprintf "Offsite.Executor.create: kernel %s"
             k.Variant.spec.Yasksite_stencil.Spec.name)
        (Lint.Kernel.spec k.Variant.spec))
    variant.Variant.kernels;
  let halo = Pde.halo pde in
  let dims = pde.Pde.dims in
  let fresh_with value =
    let g = Grid.create ~halo ~dims () in
    (match value with
    | Some v -> Grid.halo_dirichlet g v
    | None -> ());
    g
  in
  let state = Pde.init_grid pde in
  let boundary_value =
    match pde.Pde.boundary with
    | Pde.Dirichlet v -> Some v
    | Pde.Periodic -> None
  in
  let next_state = fresh_with boundary_value in
  let others =
    List.filter_map
      (fun b ->
        match b with
        | Variant.State | Variant.Next_state -> None
        | Variant.Stage _ -> Some (b, fresh_with (stage_boundary_value pde.Pde.boundary))
        | Variant.Stage_input -> Some (b, fresh_with boundary_value))
      (Variant.buffers variant)
  in
  let kernels =
    List.map
      (fun (k : Variant.kernel) ->
        let info = Analysis.of_spec k.Variant.spec in
        let fields_at_offsets =
          List.filter_map
            (fun (a : Expr.access) ->
              if Array.exists (fun d -> d <> 0) a.Expr.offsets then
                Some a.Expr.field
              else None)
            info.Analysis.accesses
          |> List.sort_uniq compare
        in
        { kernel = k;
          halo_inputs =
            List.map (fun f -> k.Variant.inputs.(f)) fields_at_offsets;
          plan = Lower.lower k.Variant.spec })
      variant.Variant.kernels
  in
  let t = { pde; variant; state; next_state; others; kernels; steps_done = 0 } in
  (* With the buffers materialised, prove every kernel's sweep legal
     once up front — extents, aliasing, halo width, layout (YS4xx) —
     so the per-step sweeps can skip re-checking. *)
  List.iter
    (fun c ->
      let info = Analysis.of_spec c.kernel.Variant.spec in
      let inputs = Array.map (grid_of t) c.kernel.Variant.inputs in
      let output = grid_of t c.kernel.Variant.output in
      Lint.gate
        ~context:
          (Printf.sprintf "Offsite.Executor.create: kernel %s"
             c.kernel.Variant.spec.Yasksite_stencil.Spec.name)
        (Lint.Schedule.grids info Config.default ~inputs ~output);
      (* And the lowered plan itself: the YS5xx dataflow verifier proves
         the per-step sweeps' access tables in-bounds and the kernel
         bodies stack-safe, since [step] runs them with [~check:false]. *)
      Lint.gate
        ~context:
          (Printf.sprintf "Offsite.Executor.create: kernel %s (plan)"
             c.kernel.Variant.spec.Yasksite_stencil.Spec.name)
        (Lint.Plan.check ~info c.plan ~inputs ~output))
    kernels;
  t

let refresh_halo t buffer =
  (* Dirichlet halos are static (set at creation); only periodic halos
     track the interior. *)
  match t.pde.Pde.boundary with
  | Pde.Dirichlet _ -> ()
  | Pde.Periodic -> Grid.halo_periodic (grid_of t buffer)

let step t =
  List.iter
    (fun c ->
      List.iter (refresh_halo t) c.halo_inputs;
      let inputs = Array.map (grid_of t) c.kernel.Variant.inputs in
      let output = grid_of t c.kernel.Variant.output in
      (* [create] proved these grids legal once; skip the per-step gate. *)
      ignore
        (Sweep.run ~plan:c.plan ~check:false c.kernel.Variant.spec
           ~inputs ~output
          : Sweep.stats))
    t.kernels;
  (* The variant writes the advanced state into Next_state; swap. *)
  let s = t.state in
  t.state <- t.next_state;
  t.next_state <- s;
  t.steps_done <- t.steps_done + 1

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let state t = t.state

let steps_done t = t.steps_done
