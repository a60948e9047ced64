open Yasksite_offsite
module Machine = Yasksite_arch.Machine
module Grid = Yasksite_grid.Grid
module Config = Yasksite_ecm.Config
module Analysis = Yasksite_stencil.Analysis
module Tableau = Yasksite_ode.Tableau
module Pde = Yasksite_ode.Pde
module Rk = Yasksite_ode.Rk
module Ivp = Yasksite_ode.Ivp

let test_variant_structure () =
  let pde = Pde.heat ~rank:2 ~n:16 ~alpha:1.0 in
  let u = Variant.unfused Tableau.rk4 pde ~h:1e-4 in
  let f = Variant.fused Tableau.rk4 pde ~h:1e-4 in
  (* rk4: stage 0 reads y directly; stages 1..3 need an axpy each. *)
  Alcotest.(check int) "unfused sweeps" 8 (Variant.sweeps_per_step u);
  Alcotest.(check int) "fused sweeps" 5 (Variant.sweeps_per_step f);
  Alcotest.(check bool) "scratch only in unfused" true
    (List.mem Variant.Stage_input (Variant.buffers u)
    && not (List.mem Variant.Stage_input (Variant.buffers f)));
  (* The fused stage-1 kernel reads y and K_0 at stencil offsets. *)
  let stage1 = List.nth f.Variant.kernels 1 in
  let info = Analysis.of_spec stage1.Variant.spec in
  Alcotest.(check (list int)) "fused stage reads two fields" [ 0; 1 ]
    info.Analysis.read_fields;
  Alcotest.(check int) "stencil-width loads on both fields" 10
    info.Analysis.loads

let test_variant_euler () =
  let pde = Pde.heat ~rank:1 ~n:16 ~alpha:1.0 in
  let u = Variant.unfused Tableau.euler pde ~h:1e-4 in
  (* Euler: one rhs sweep + update. *)
  Alcotest.(check int) "euler sweeps" 2 (Variant.sweeps_per_step u)

(* Flatten a state grid to compare with the reference integrator. *)
let flatten g =
  let out = ref [] in
  Grid.iter_interior g ~f:(fun idx -> out := Grid.get g idx :: !out);
  Array.of_list (List.rev !out)

let max_diff a b =
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := max !m (abs_float (v -. b.(i)))) a;
  !m

let executor_matches_reference ~pde ~tab ~steps ~h ~tol =
  let reference =
    Rk.integrate tab (Pde.to_ivp pde ~t_end:(float_of_int steps *. h)) ~steps
  in
  List.iter
    (fun variant ->
      let ex = Executor.create pde variant in
      Executor.run ex ~steps;
      let got = flatten (Executor.state ex) in
      let d = max_diff got reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches reference (diff %.2e)"
           variant.Variant.name d)
        true (d < tol))
    (Variant.all tab pde ~h)

let test_executor_heat2d_rk4 () =
  executor_matches_reference
    ~pde:(Pde.heat ~rank:2 ~n:12 ~alpha:1.0)
    ~tab:Tableau.rk4 ~steps:5 ~h:1e-4 ~tol:1e-12

let test_executor_heat1d_methods () =
  let pde = Pde.heat ~rank:1 ~n:20 ~alpha:1.0 in
  List.iter
    (fun tab ->
      executor_matches_reference ~pde ~tab ~steps:4 ~h:5e-5 ~tol:1e-12)
    [ Tableau.euler; Tableau.heun2; Tableau.kutta38; Tableau.dopri5;
      Tableau.pirk ~stages:2 ~iterations:2 ]

let test_executor_periodic () =
  executor_matches_reference
    ~pde:(Pde.advection_1d ~n:24 ~velocity:1.0)
    ~tab:Tableau.rk4 ~steps:6 ~h:1e-3 ~tol:1e-12

let test_executor_heat3d () =
  executor_matches_reference
    ~pde:(Pde.heat ~rank:3 ~n:6 ~alpha:1.0)
    ~tab:Tableau.heun2 ~steps:3 ~h:1e-4 ~tol:1e-12

let test_executor_accuracy () =
  (* End to end: the fused executor actually solves the PDE. *)
  let pde = Pde.heat ~rank:2 ~n:16 ~alpha:1.0 in
  let h = 2e-5 and steps = 100 in
  let ex = Executor.create pde (Variant.fused Tableau.rk4 pde ~h) in
  Executor.run ex ~steps;
  let err =
    Pde.grid_error_vs_exact pde ~tm:(h *. float_of_int steps)
      (Executor.state ex)
  in
  Alcotest.(check bool)
    (Printf.sprintf "solves heat2d (err %.2e)" err)
    true (err < 1e-3);
  Alcotest.(check int) "steps counted" steps (Executor.steps_done ex)

let test_best_static_config () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:2 ~n:32 ~alpha:1.0 in
  let info = Analysis.of_spec pde.Pde.spec in
  let c = Offsite.best_static_config m info ~dims:pde.Pde.dims ~threads:2 in
  Alcotest.(check int) "no wavefront" 1 c.Config.wavefront;
  Alcotest.(check int) "threads kept" 2 c.Config.threads

let test_evaluate_and_quality () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:2 ~n:32 ~alpha:1.0 in
  let candidates =
    Offsite.evaluate m pde Tableau.rk4 ~h:1e-4 ~threads:2
  in
  Alcotest.(check int) "four candidates" 4 (List.length candidates);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Offsite.predicted_step_seconds <= b.Offsite.predicted_step_seconds
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by prediction" true (sorted candidates);
  List.iter
    (fun c ->
      Alcotest.(check bool) "positive predicted" true
        (c.Offsite.predicted_step_seconds > 0.0);
      Alcotest.(check bool) "positive measured" true
        (c.Offsite.measured_step_seconds > 0.0))
    candidates;
  let q = Offsite.quality candidates in
  Alcotest.(check bool) "kendall in range" true
    (q.Offsite.kendall >= -1.0 && q.Offsite.kendall <= 1.0);
  Alcotest.(check bool) "speedup positive" true (q.Offsite.speedup_selected > 0.0);
  Alcotest.(check bool) "errors finite" true
    (Float.is_finite q.Offsite.mean_abs_error)

let base_suite =
  [ Alcotest.test_case "variant structure" `Quick test_variant_structure;
    Alcotest.test_case "variant euler" `Quick test_variant_euler;
    Alcotest.test_case "executor heat2d rk4" `Quick test_executor_heat2d_rk4;
    Alcotest.test_case "executor methods" `Quick test_executor_heat1d_methods;
    Alcotest.test_case "executor periodic" `Quick test_executor_periodic;
    Alcotest.test_case "executor heat3d" `Quick test_executor_heat3d;
    Alcotest.test_case "executor accuracy" `Quick test_executor_accuracy;
    Alcotest.test_case "best static config" `Quick test_best_static_config;
    Alcotest.test_case "evaluate + quality" `Slow test_evaluate_and_quality ]

let test_selected_gap () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:1 ~n:64 ~alpha:1.0 in
  let candidates = Offsite.evaluate m pde Tableau.heun2 ~h:1e-5 ~threads:1 in
  let q = Offsite.quality candidates in
  Alcotest.(check bool) "gap non-negative" true (q.Offsite.selected_gap >= 0.0);
  Alcotest.(check bool) "gap consistent with top1" true
    (not q.Offsite.top1 || q.Offsite.selected_gap < 1e-9)

let test_spectral_radius () =
  let n = 40 in
  let pde = Pde.heat ~rank:1 ~n ~alpha:1.0 in
  let dx = 1.0 /. float_of_int (n + 1) in
  (* 1D Laplacian spectral radius: (4/dx^2) sin^2(pi n dx / 2) ~ 4/dx^2 *)
  let expected =
    4.0 /. (dx *. dx)
    *. (sin (Float.pi *. float_of_int n *. dx /. 2.0) ** 2.0)
  in
  let got = Offsite.spectral_radius pde in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% (got %.0f, expected %.0f)" got expected)
    true
    (abs_float (got -. expected) /. expected < 0.05)

let test_rank_methods () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:1 ~n:128 ~alpha:1.0 in
  let choices =
    Offsite.rank_methods m pde [ Tableau.euler; Tableau.rk4 ] ~threads:1
  in
  Alcotest.(check int) "two methods" 2 (List.length choices);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Offsite.predicted_time_per_unit <= b.Offsite.predicted_time_per_unit
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by prediction" true (sorted choices);
  List.iter
    (fun (c : Offsite.method_choice) ->
      Alcotest.(check bool) "stable step positive" true (c.Offsite.h_stable > 0.0);
      Alcotest.(check bool) "rk4 steps larger than euler's" true
        (c.Offsite.predicted_time_per_unit > 0.0))
    choices;
  (* RK4's stability interval is ~1.39x Euler's. *)
  let h_of name =
    (List.find
       (fun c -> c.Offsite.tableau.Tableau.name = name)
       choices)
      .Offsite.h_stable
  in
  Alcotest.(check bool) "h ratio ~1.39" true
    (abs_float ((h_of "rk4" /. h_of "euler") -. 1.3925) < 0.01)

let test_fisher_variant_correctness () =
  (* Nonlinear RHS: fused and unfused variants must still reproduce the
     reference integrator (stage fusion is exact for any RHS). *)
  let pde = Pde.fisher_kpp ~rank:1 ~n:24 ~diffusion:1e-3 ~rate:2.0 in
  let tab = Tableau.rk4 in
  let steps = 5 and h = 1e-3 in
  let reference =
    Rk.integrate tab (Pde.to_ivp pde ~t_end:(float_of_int steps *. h)) ~steps
  in
  List.iter
    (fun variant ->
      let ex = Executor.create pde variant in
      Executor.run ex ~steps;
      let got = flatten (Executor.state ex) in
      Alcotest.(check bool)
        (variant.Variant.name ^ " matches reference")
        true
        (max_diff got reference < 1e-12))
    (Variant.all tab pde ~h)

let extra_suite =
  [ Alcotest.test_case "selected gap" `Quick test_selected_gap;
    Alcotest.test_case "spectral radius" `Quick test_spectral_radius;
    Alcotest.test_case "rank methods" `Quick test_rank_methods;
    Alcotest.test_case "fisher variants" `Quick test_fisher_variant_correctness ]

let test_rank_methods_at_accuracy () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:1 ~n:32 ~alpha:1.0 in
  let methods = [ Tableau.euler; Tableau.rk4 ] in
  (* Loose tolerance: both methods run at the stability limit and the
     cheap low-order method wins on cost. *)
  let loose =
    Offsite.rank_methods_at_accuracy m pde methods ~t_end:0.002 ~tol:1e-2
      ~threads:1
  in
  Alcotest.(check int) "two choices" 2 (List.length loose);
  List.iter
    (fun (c : Offsite.accuracy_choice) ->
      Alcotest.(check bool) "tolerance met" true
        (c.Offsite.achieved_error <= 1e-2);
      Alcotest.(check bool) "cost positive" true (c.Offsite.predicted_seconds > 0.0))
    loose;
  let steps_of name l =
    (List.find
       (fun c -> c.Offsite.tableau_a.Tableau.name = name)
       l)
      .Offsite.steps
  in
  (* Tight tolerance: Euler needs far more steps than RK4. *)
  let tight =
    Offsite.rank_methods_at_accuracy m pde methods ~t_end:0.002 ~tol:1e-9
      ~threads:1
  in
  Alcotest.(check bool)
    (Printf.sprintf "euler needs more steps (%d vs %d)"
       (steps_of "euler" tight) (steps_of "rk4" tight))
    true
    (steps_of "euler" tight > 2 * steps_of "rk4" tight);
  (match tight with
  | best :: _ ->
      Alcotest.(check string) "rk4 selected at tight tolerance" "rk4"
        best.Offsite.tableau_a.Tableau.name
  | [] -> Alcotest.fail "empty");
  Alcotest.check_raises "tol positive"
    (Invalid_argument "Offsite.rank_methods_at_accuracy: tol must be positive")
    (fun () ->
      ignore
        (Offsite.rank_methods_at_accuracy m pde methods ~t_end:0.01 ~tol:0.0
           ~threads:1))

let accuracy_suite =
  [ Alcotest.test_case "rank methods at accuracy" `Slow
      test_rank_methods_at_accuracy ]

let test_variant_coefficients () =
  (* The stage-1 axpy of rk4 must scale K_0 by h * a_10 = h/2. *)
  let pde = Pde.heat ~rank:1 ~n:8 ~alpha:1.0 in
  let h = 0.25 in
  let u = Variant.unfused Tableau.rk4 pde ~h in
  let axpy1 =
    List.find (fun (k : Variant.kernel) ->
        k.Variant.output = Variant.Stage_input)
      u.Variant.kernels
  in
  let expr = axpy1.Variant.spec.Yasksite_stencil.Spec.expr in
  let found = ref false in
  let rec scan (e : Yasksite_stencil.Expr.t) =
    match e with
    | Yasksite_stencil.Expr.Mul (Yasksite_stencil.Expr.Const c, _)
      when abs_float (c -. (h /. 2.0)) < 1e-15 ->
        found := true
    | Yasksite_stencil.Expr.Add (a, b)
    | Yasksite_stencil.Expr.Sub (a, b)
    | Yasksite_stencil.Expr.Mul (a, b)
    | Yasksite_stencil.Expr.Div (a, b) ->
        scan a;
        scan b
    | Yasksite_stencil.Expr.Neg a -> scan a
    | _ -> ()
  in
  scan expr;
  Alcotest.(check bool) "h*a_10 present" true !found

let test_update_reads_nonzero_weights_only () =
  (* dopri5 has b_2 = 0 (index 1) and b_7 = 0: the update kernel must
     not read those stages. *)
  let pde = Pde.heat ~rank:1 ~n:8 ~alpha:1.0 in
  let u = Variant.unfused Tableau.dopri5 pde ~h:0.1 in
  let update =
    List.find (fun (k : Variant.kernel) ->
        k.Variant.output = Variant.Next_state)
      u.Variant.kernels
  in
  let reads_stage i =
    Array.exists (fun b -> b = Variant.Stage i) update.Variant.inputs
  in
  Alcotest.(check bool) "skips b=0 stages" false (reads_stage 1 || reads_stage 6);
  Alcotest.(check bool) "reads b<>0 stages" true (reads_stage 0 && reads_stage 5)

let coeff_suite =
  [ Alcotest.test_case "variant coefficients" `Quick test_variant_coefficients;
    Alcotest.test_case "update skips zero weights" `Quick
      test_update_reads_nonzero_weights_only ]

let test_mixed_variants () =
  let pde = Pde.heat ~rank:1 ~n:16 ~alpha:1.0 in
  let h = 1e-4 in
  let mixed = Variant.all_mixed Tableau.rk4 pde ~h in
  (* rk4: stage 0 has no coefficients, stages 1..3 are free: 8 masks. *)
  Alcotest.(check int) "eight masks" 8 (List.length mixed);
  let names = List.map (fun v -> v.Variant.name) mixed in
  Alcotest.(check int) "distinct names" 8
    (List.length (List.sort_uniq compare names));
  (* Every mixed variant computes the same step as the reference. *)
  let steps = 3 in
  let reference =
    Rk.integrate Tableau.rk4
      (Pde.to_ivp pde ~t_end:(float_of_int steps *. h))
      ~steps
  in
  List.iter
    (fun variant ->
      let ex = Executor.create pde variant in
      Executor.run ex ~steps;
      let got = flatten (Executor.state ex) in
      Alcotest.(check bool)
        (variant.Variant.name ^ " correct")
        true
        (max_diff got reference < 1e-12))
    mixed;
  (* Sweep counts interpolate between fused (5) and unfused (8). *)
  let sweeps = List.map Variant.sweeps_per_step mixed in
  Alcotest.(check int) "min sweeps" 5 (List.fold_left min 99 sweeps);
  Alcotest.(check int) "max sweeps" 8 (List.fold_left max 0 sweeps);
  (* Oversized methods fall back to the pure schemes. *)
  Alcotest.(check int) "dopri5 falls back" 2
    (List.length (Variant.all_mixed Tableau.dopri5 pde ~h));
  Alcotest.check_raises "mask length"
    (Invalid_argument "Variant.with_mask: mask length must equal the stage count")
    (fun () ->
      ignore (Variant.with_mask Tableau.rk4 pde ~h ~mask:[| true |]))

let test_evaluate_mixed () =
  let m = Machine.test_chip in
  let pde = Pde.heat ~rank:1 ~n:64 ~alpha:1.0 in
  let candidates = Offsite.evaluate_mixed m pde Tableau.heun2 ~h:1e-5 ~threads:1 in
  (* heun2: one free stage -> 2 masks x 2 tuning = 4 candidates. *)
  Alcotest.(check int) "four candidates" 4 (List.length candidates);
  let q = Offsite.quality candidates in
  Alcotest.(check bool) "quality computable" true
    (Float.is_finite q.Offsite.mean_abs_error)

let mixed_suite =
  [ Alcotest.test_case "mixed variants" `Quick test_mixed_variants;
    Alcotest.test_case "evaluate mixed" `Slow test_evaluate_mixed ]

(* ------------------------------------------------------------------ *)
(* A ranking call measures each distinct (kernel, config) pair once and
   shares it. Every output must equal [Offsite_reference], which
   measures every kernel of every candidate: field by field, floats in
   hex.                                                                 *)

module Reference = Offsite_reference
module Pool = Yasksite_util.Pool
module Expr = Yasksite_stencil.Expr
module Spec = Yasksite_stencil.Spec

let candidate_fields (c : Offsite.candidate) =
  [ c.Offsite.variant.Variant.name;
    string_of_bool c.Offsite.tuned;
    String.concat "; "
      (List.map
         (fun (label, config) -> label ^ " " ^ Config.to_string config)
         c.Offsite.configs);
    Printf.sprintf "%h" c.Offsite.predicted_step_seconds;
    Printf.sprintf "%h" c.Offsite.measured_step_seconds ]

let check_candidates what ~reference ~got =
  Alcotest.(check (list (list string)))
    what
    (List.map candidate_fields reference)
    (List.map candidate_fields got)

let choice_fields (c : Offsite.method_choice) =
  c.Offsite.tableau.Tableau.name
  :: Printf.sprintf "%h" c.Offsite.h_stable
  :: Printf.sprintf "%h" c.Offsite.predicted_time_per_unit
  :: Printf.sprintf "%h" c.Offsite.measured_time_per_unit
  :: candidate_fields c.Offsite.candidate

(* Equal up to the values of their constants. *)
let rec same_but_constants (a : Expr.t) (b : Expr.t) =
  match (a, b) with
  | Const _, Const _ -> true
  | Neg x, Neg y -> same_but_constants x y
  | Add (a, b), Add (c, d)
  | Sub (a, b), Sub (c, d)
  | Mul (a, b), Mul (c, d)
  | Div (a, b), Div (c, d)
  | Min (a, b), Min (c, d)
  | Max (a, b), Max (c, d) ->
      same_but_constants a c && same_but_constants b d
  | Select (a, b, c), Select (d, e, f) ->
      same_but_constants a d && same_but_constants b e && same_but_constants c f
  | _ -> Expr.equal a b

(* The case must hold the two kernel pairs a shared measurement could
   get wrong: one expression under two names (one measurement), and two
   expressions that differ only in a coefficient (two). *)
let check_kernel_pairs variants =
  let specs =
    List.concat_map
      (fun (v : Variant.t) ->
        List.map (fun (k : Variant.kernel) -> k.Variant.spec) v.Variant.kernels)
      variants
  in
  let exists_pair p =
    List.exists (fun (a : Spec.t) -> List.exists (fun b -> p a b) specs) specs
  in
  Alcotest.(check bool) "one expression under two names" true
    (exists_pair (fun a b ->
         a.Spec.name <> b.Spec.name && Expr.equal a.Spec.expr b.Spec.expr));
  Alcotest.(check bool) "expressions that differ only in a coefficient" true
    (exists_pair (fun a b ->
         (not (Expr.equal a.Spec.expr b.Spec.expr))
         && same_but_constants a.Spec.expr b.Spec.expr))

(* perfbench's ode op (= yasksite ode -m clx --pde heat3d -n 16) and a
   test-chip case with two threads, so tuned configs are threaded. *)
let shared_cases =
  [ ( "clx/8 heat3d n=16 rk4",
      Machine.scaled ~factor:8 Machine.cascade_lake,
      Pde.heat ~rank:3 ~n:16 ~alpha:1.0,
      1e-5,
      1 );
    ("test chip heat2d n=32 rk4", Machine.test_chip,
     Pde.heat ~rank:2 ~n:32 ~alpha:1.0, 1e-4, 2) ]

let test_evaluate_shares_measurements () =
  List.iter
    (fun (name, m, pde, h, threads) ->
      check_kernel_pairs (Variant.all Tableau.rk4 pde ~h);
      let reference = Reference.evaluate m pde Tableau.rk4 ~h ~threads in
      check_candidates (name ^ ": evaluate") ~reference
        ~got:(Offsite.evaluate m pde Tableau.rk4 ~h ~threads);
      Pool.with_pool ~domains:2 (fun pool ->
          check_candidates
            (name ^ ": evaluate on 2 domains")
            ~reference
            ~got:(Offsite.evaluate ~pool m pde Tableau.rk4 ~h ~threads)))
    shared_cases

let test_evaluate_mixed_shares_measurements () =
  List.iter
    (fun (name, m, pde, h, threads) ->
      check_kernel_pairs (Variant.all_mixed Tableau.rk4 pde ~h);
      check_candidates (name ^ ": evaluate_mixed")
        ~reference:(Reference.evaluate_mixed m pde Tableau.rk4 ~h ~threads)
        ~got:(Offsite.evaluate_mixed m pde Tableau.rk4 ~h ~threads))
    shared_cases

let test_rank_methods_shares_measurements () =
  let methods = [ Tableau.euler; Tableau.heun2; Tableau.rk4 ] in
  List.iter
    (fun (name, m, pde, _, threads) ->
      Alcotest.(check (list (list string)))
        (name ^ ": rank_methods")
        (List.map choice_fields (Reference.rank_methods m pde methods ~threads))
        (List.map choice_fields (Offsite.rank_methods m pde methods ~threads)))
    (shared_cases
    @ [ ("test chip heat1d n=64", Machine.test_chip,
         Pde.heat ~rank:1 ~n:64 ~alpha:1.0, 0.0, 1) ])

let shared_suite =
  [ Alcotest.test_case "evaluate = reference, sequential and pooled" `Slow
      test_evaluate_shares_measurements;
    Alcotest.test_case "evaluate_mixed = reference" `Slow
      test_evaluate_mixed_shares_measurements;
    Alcotest.test_case "rank_methods = reference" `Slow
      test_rank_methods_shares_measurements ]

let suite =
  base_suite @ extra_suite @ accuracy_suite @ coeff_suite @ mixed_suite
  @ shared_suite
