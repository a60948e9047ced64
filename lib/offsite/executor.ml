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
  (* The kernel's lowered plan (computed once at creation) and its
     bindings, memoized per physical grid combination: the state/next
     ping-pong means each kernel only ever sees a couple of
     combinations, so every step after the first two reuses a bound. *)
  plan : Kplan.t;
  mutable bounds : (int list * Lower.bound) list;
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
          plan = Lower.lower k.Variant.spec;
          bounds = [] })
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
  let backend = Sweep.default_backend () in
  List.iter
    (fun c ->
      List.iter (refresh_halo t) c.halo_inputs;
      let inputs = Array.map (grid_of t) c.kernel.Variant.inputs in
      let output = grid_of t c.kernel.Variant.output in
      (* Physical identity of the grid combination: the ping-pong swap
         changes which grids the buffers resolve to, not the buffers
         themselves. *)
      let key =
        Grid.base_address output
        :: Array.to_list (Array.map Grid.base_address inputs)
      in
      let bound =
        match List.assoc_opt key c.bounds with
        | Some b -> b
        | None ->
            let b = Lower.bind c.plan ~inputs ~output in
            c.bounds <- (key, b) :: c.bounds;
            b
      in
      (* [create] proved these grids legal once; skip the per-step gate. *)
      ignore
        (Sweep.run ~backend ~bound ~check:false c.kernel.Variant.spec
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

type run_report = {
  steps_requested : int;
  steps_completed : int;
  step_attempts : int;
  retries : int;
  gave_up : bool;
  charged_seconds : float;
}

let run_resilient ?(faults = Yasksite_faults.Plan.none)
    ?(policy = Yasksite_faults.Policy.default)
    ?(clock = Yasksite_util.Clock.system) t ~steps =
  let module Plan = Yasksite_faults.Plan in
  let module Policy = Yasksite_faults.Policy in
  let module Retry = Yasksite_faults.Retry in
  let t0 = Yasksite_util.Clock.now clock in
  let charged = ref 0.0 in
  let vnow () = Yasksite_util.Clock.now clock +. !charged in
  let sleep d = charged := !charged +. d in
  let deadline = t0 +. policy.Policy.pass_budget_s in
  let inj = Plan.injector faults in
  let jitter_rng =
    Yasksite_util.Prng.create ~seed:(faults.Plan.seed lxor 0x5DEECE66)
  in
  let attempts = ref 0 in
  let completed = ref 0 in
  let gave_up = ref false in
  (* A step is only retried if the fault fired *before* the kernels ran,
     so a retry never double-applies the variant's state update. *)
  let attempt_step () =
    incr attempts;
    match Plan.draw inj with
    | Plan.Transient_failure -> Error "transient failure"
    | Plan.Timeout d ->
        sleep d;
        Error "timeout"
    | Plan.Run _ ->
        step t;
        Ok ()
  in
  (try
     for _ = 1 to steps do
       match
         Retry.run ~policy ~rng:jitter_rng ~now:vnow ~sleep ~deadline
           attempt_step
       with
       | Retry.Success ((), _) -> incr completed
       | Retry.Gave_up _ ->
           gave_up := true;
           raise Exit
     done
   with Exit -> ());
  { steps_requested = steps;
    steps_completed = !completed;
    step_attempts = !attempts;
    retries = !attempts - !completed;
    gave_up = !gave_up;
    charged_seconds = !charged }

let state t = t.state

let steps_done t = t.steps_done
