open Yasksite_ode
module Grid = Yasksite_grid.Grid

let check_float = Alcotest.(check (float 1e-9))

let test_tableau_validation () =
  Alcotest.check_raises "not explicit"
    (Invalid_argument "Tableau.v: method is not explicit") (fun () ->
      ignore
        (Tableau.v ~name:"implicit"
           ~a:[| [| 1.0 |] |]
           ~b:[| 1.0 |] ~c:[| 0.5 |] ~order:1 ()));
  Alcotest.check_raises "dimension"
    (Invalid_argument "Tableau.v: dimension mismatch") (fun () ->
      ignore
        (Tableau.v ~name:"bad"
           ~a:[| [| 0.0 |] |]
           ~b:[| 1.0 |] ~c:[| 0.0; 1.0 |] ~order:1 ()))

let test_order_conditions () =
  List.iter
    (fun (t : Tableau.t) ->
      check_float (t.Tableau.name ^ " weights") 0.0 (Tableau.weight_check t);
      let p = min t.Tableau.order 4 in
      Alcotest.(check bool)
        (Printf.sprintf "%s satisfies order-%d conditions" t.Tableau.name p)
        true
        (Tableau.order_residual t p < 1e-12))
    Tableau.all

let test_order_conditions_sharp () =
  (* Euler does NOT satisfy order-2 conditions; RK4 does not satisfy
     order-4 conditions beyond its design order... it does satisfy 4; but
     not 4+ (not checkable here). Check sharpness for low orders. *)
  Alcotest.(check bool) "euler fails order 2" true
    (Tableau.order_residual Tableau.euler 2 > 0.1);
  Alcotest.(check bool) "heun fails order 3" true
    (Tableau.order_residual Tableau.heun2 3 > 0.01)

let test_pirk () =
  let p = Tableau.pirk ~stages:2 ~iterations:3 in
  Alcotest.(check int) "stages" 8 p.Tableau.s;
  Alcotest.(check int) "order" 4 p.Tableau.order;
  Alcotest.(check bool) "order-4 conditions" true
    (Tableau.order_residual p 4 < 1e-12);
  let p1 = Tableau.pirk ~stages:1 ~iterations:1 in
  Alcotest.(check int) "midpoint-order" 2 p1.Tableau.order;
  Alcotest.(check bool) "order-2 conditions" true
    (Tableau.order_residual p1 2 < 1e-12)

let test_integrate_accuracy () =
  let ivp = Ivp.exp_decay ~lambda:2.0 in
  let y = Rk.integrate Tableau.rk4 ivp ~steps:100 in
  Alcotest.(check bool) "rk4 accurate" true (Ivp.error_vs_exact ivp ~y < 1e-9);
  let y_e = Rk.integrate Tableau.euler ivp ~steps:100 in
  Alcotest.(check bool) "euler much worse" true
    (Ivp.error_vs_exact ivp ~y:y_e > 1e-4)

let observed tab ivp = Rk.observed_order tab ivp

let test_observed_orders () =
  let ivp = Ivp.harmonic ~omega:2.0 in
  let check name tab expected =
    let got = observed tab ivp in
    Alcotest.(check bool)
      (Printf.sprintf "%s order ~%d (got %.2f)" name expected got)
      true
      (abs_float (got -. float_of_int expected) < 0.5)
  in
  check "euler" Tableau.euler 1;
  check "heun2" Tableau.heun2 2;
  check "kutta3" Tableau.kutta3 3;
  check "rk4" Tableau.rk4 4;
  check "kutta38" Tableau.kutta38 4;
  check "pirk-2-3" (Tableau.pirk ~stages:2 ~iterations:3) 4

let test_ivp_library () =
  let d = Ivp.diagonal ~lambdas:[| 1.0; 2.0; 3.0 |] in
  let y = Rk.integrate Tableau.rk4 d ~steps:50 in
  Alcotest.(check bool) "diagonal accurate" true (Ivp.error_vs_exact d ~y < 1e-6);
  let b = Ivp.brusselator in
  let y = Rk.integrate Tableau.rk4 b ~steps:200 in
  Alcotest.(check bool) "brusselator finite" true
    (Array.for_all (fun v -> Float.is_finite v) y);
  Alcotest.check_raises "no exact"
    (Invalid_argument "Ivp.error_vs_exact: no exact solution") (fun () ->
      ignore (Ivp.error_vs_exact b ~y))

let test_heat_convergence_in_space () =
  (* Error against the analytic PDE solution is dominated by the O(dx^2)
     spatial discretisation; quadrupling n should cut it ~16x. *)
  let solve n =
    let p = Pde.heat ~rank:1 ~n ~alpha:1.0 in
    let t_end = 0.005 in
    let ivp = Pde.to_ivp p ~t_end in
    let steps = 400 in
    let y = Rk.integrate Tableau.rk4 ivp ~steps in
    Ivp.error_vs_exact ivp ~y
  in
  let e1 = solve 10 and e2 = solve 40 in
  Alcotest.(check bool)
    (Printf.sprintf "spatial order ~2 (e10=%.2e e40=%.2e)" e1 e2)
    true
    (e1 /. e2 > 8.0)

let test_heat3d_ivp () =
  let p = Pde.heat ~rank:3 ~n:6 ~alpha:1.0 in
  let ivp = Pde.to_ivp p ~t_end:0.002 in
  Alcotest.(check int) "dim" 216 ivp.Ivp.dim;
  let y = Rk.integrate Tableau.rk4 ivp ~steps:50 in
  Alcotest.(check bool) "accurate-ish" true (Ivp.error_vs_exact ivp ~y < 0.05)

let test_advection () =
  let p = Pde.advection_1d ~n:64 ~velocity:1.0 in
  let g = Pde.init_grid p in
  Alcotest.(check (float 1e-12)) "init matches exact at t=0" 0.0
    (Pde.grid_error_vs_exact p ~tm:0.0 g);
  (* Integrate one full period: upwind diffuses but stays bounded. *)
  let ivp = Pde.to_ivp p ~t_end:0.5 in
  let y = Rk.integrate Tableau.rk4 ivp ~steps:200 in
  Alcotest.(check bool) "bounded" true
    (Array.for_all (fun v -> abs_float v <= 1.1) y)

let test_boundaries () =
  let p = Pde.heat ~rank:2 ~n:8 ~alpha:1.0 in
  let g = Pde.init_grid p in
  Alcotest.(check (float 0.0)) "dirichlet halo" 0.0 (Grid.get g [| -1; 3 |]);
  let a = Pde.advection_1d ~n:8 ~velocity:1.0 in
  let ga = Pde.init_grid a in
  Alcotest.(check (float 1e-12)) "periodic halo" (Grid.get ga [| 7 |])
    (Grid.get ga [| -1 |])

let test_pde_validation () =
  Alcotest.check_raises "rank" (Invalid_argument "Pde.heat: rank must be 1..3")
    (fun () -> ignore (Pde.heat ~rank:0 ~n:8 ~alpha:1.0));
  Alcotest.check_raises "velocity"
    (Invalid_argument "Pde.advection_1d: velocity must be > 0") (fun () ->
      ignore (Pde.advection_1d ~n:8 ~velocity:(-1.0)))

let base_suite =
  [ Alcotest.test_case "tableau validation" `Quick test_tableau_validation;
    Alcotest.test_case "order conditions" `Quick test_order_conditions;
    Alcotest.test_case "order conditions sharp" `Quick
      test_order_conditions_sharp;
    Alcotest.test_case "pirk construction" `Quick test_pirk;
    Alcotest.test_case "integrate accuracy" `Quick test_integrate_accuracy;
    Alcotest.test_case "observed orders" `Quick test_observed_orders;
    Alcotest.test_case "ivp library" `Quick test_ivp_library;
    Alcotest.test_case "heat spatial convergence" `Quick
      test_heat_convergence_in_space;
    Alcotest.test_case "heat3d ivp" `Quick test_heat3d_ivp;
    Alcotest.test_case "advection" `Quick test_advection;
    Alcotest.test_case "pde boundaries" `Quick test_boundaries;
    Alcotest.test_case "pde validation" `Quick test_pde_validation ]

let test_stability_polynomial () =
  let p = Tableau.stability_polynomial Tableau.rk4 in
  let expect = [| 1.0; 1.0; 0.5; 1.0 /. 6.0; 1.0 /. 24.0 |] in
  Array.iteri
    (fun i c -> check_float (Printf.sprintf "rk4 c%d" i) expect.(i) c)
    p;
  (* A method of order p has c_k = 1/k! for k <= p. *)
  let fact = [| 1.0; 1.0; 2.0; 6.0; 24.0; 120.0 |] in
  List.iter
    (fun (t : Tableau.t) ->
      let cs = Tableau.stability_polynomial t in
      for k = 0 to min t.Tableau.order 5 do
        Alcotest.(check (float 1e-10))
          (Printf.sprintf "%s c%d = 1/%d!" t.Tableau.name k k)
          (1.0 /. fact.(k))
          cs.(k)
      done)
    Tableau.all

let test_stability_interval () =
  let check name tab lo hi =
    let x = Tableau.real_stability_interval tab in
    Alcotest.(check bool)
      (Printf.sprintf "%s stability in [%.2f, %.2f] (got %.3f)" name lo hi x)
      true
      (x >= lo && x <= hi)
  in
  check "euler" Tableau.euler 1.99 2.01;
  check "heun2" Tableau.heun2 1.99 2.01;
  check "kutta3" Tableau.kutta3 2.50 2.53;
  check "rk4" Tableau.rk4 2.78 2.80;
  check "kutta38" Tableau.kutta38 2.78 2.80;
  check "dopri5" Tableau.dopri5 3.0 3.6

let test_fisher_kpp () =
  let p = Pde.fisher_kpp ~rank:1 ~n:32 ~diffusion:1e-3 ~rate:1.0 in
  let a = Yasksite_stencil.Analysis.of_spec p.Pde.spec in
  (* The nonlinear term u*u adds a multiplication of two field reads. *)
  Alcotest.(check bool) "nonlinear muls" true (a.Yasksite_stencil.Analysis.muls >= 3);
  let ivp = Pde.to_ivp p ~t_end:0.5 in
  let y = Rk.integrate Tableau.rk4 ivp ~steps:200 in
  Alcotest.(check bool) "solution stays in [0, 1.05]" true
    (Array.for_all (fun v -> v >= -1e-9 && v <= 1.05) y);
  (* Logistic growth: mass increases from the initial bump. *)
  let mass a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check bool) "mass grows" true (mass y > mass ivp.Ivp.y0);
  Alcotest.check_raises "diffusion positive"
    (Invalid_argument "Pde.fisher_kpp: diffusion must be > 0") (fun () ->
      ignore (Pde.fisher_kpp ~rank:1 ~n:8 ~diffusion:0.0 ~rate:1.0))

let extra_suite =
  [ Alcotest.test_case "stability polynomial" `Quick test_stability_polynomial;
    Alcotest.test_case "stability interval" `Quick test_stability_interval;
    Alcotest.test_case "fisher-kpp" `Quick test_fisher_kpp ]

let test_rk_validation () =
  let ivp = Ivp.exp_decay ~lambda:1.0 in
  Alcotest.check_raises "steps positive"
    (Invalid_argument "Rk.integrate: steps must be positive") (fun () ->
      ignore (Rk.integrate Tableau.rk4 ivp ~steps:0));
  Alcotest.check_raises "ivp empty" (Invalid_argument "Ivp.v: empty state")
    (fun () ->
      ignore (Ivp.v ~rhs:(fun ~tm:_ ~y:_ ~dydt:_ -> ()) ~y0:[||] ~t_end:1.0 ()));
  Alcotest.check_raises "ivp times"
    (Invalid_argument "Ivp.v: t_end must be positive") (fun () ->
      ignore
        (Ivp.v ~rhs:(fun ~tm:_ ~y:_ ~dydt:_ -> ()) ~y0:[| 1.0 |] ~t_end:0.0 ()))

let test_workspace_reuse () =
  let ivp = Ivp.harmonic ~omega:1.5 in
  let ws = Rk.make_workspace Tableau.rk4 ~dim:2 in
  let y = Array.copy ivp.Ivp.y0 in
  let out1 = Array.make 2 0.0 and out2 = Array.make 2 0.0 in
  Rk.step ws Tableau.rk4 ivp ~tm:0.0 ~h:0.01 ~y ~out:out1;
  (* Re-using the workspace must give bit-identical results. *)
  Rk.step ws Tableau.rk4 ivp ~tm:0.0 ~h:0.01 ~y ~out:out2;
  Alcotest.(check bool) "deterministic" true (out1 = out2)

let test_pirk_validation () =
  Alcotest.check_raises "iterations"
    (Invalid_argument "Tableau.pirk: iterations must be >= 1") (fun () ->
      ignore (Tableau.pirk ~stages:2 ~iterations:0));
  Alcotest.check_raises "stages"
    (Invalid_argument "Tableau.pirk: 1 or 2 base stages supported") (fun () ->
      ignore (Tableau.pirk ~stages:3 ~iterations:2))

let test_advection_2d () =
  let p = Pde.advection_2d ~n:16 ~velocity:(1.0, 0.5) in
  let g = Pde.init_grid p in
  Alcotest.(check (float 1e-12)) "exact at t=0" 0.0
    (Pde.grid_error_vs_exact p ~tm:0.0 g);
  let ivp = Pde.to_ivp p ~t_end:0.05 in
  let y = Rk.integrate Tableau.heun2 ivp ~steps:40 in
  Alcotest.(check bool) "bounded" true
    (Array.for_all (fun v -> abs_float v <= 1.1) y);
  Alcotest.check_raises "velocity sign"
    (Invalid_argument "Pde.advection_2d: velocity components must be > 0")
    (fun () -> ignore (Pde.advection_2d ~n:8 ~velocity:(-1.0, 1.0)))

let more_suite =
  [ Alcotest.test_case "rk validation" `Quick test_rk_validation;
    Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
    Alcotest.test_case "pirk validation" `Quick test_pirk_validation;
    Alcotest.test_case "advection 2d" `Quick test_advection_2d ]

let suite = base_suite @ extra_suite @ more_suite
