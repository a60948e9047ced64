(* The reconstructed evaluation: one function per table/figure role
   (E1..E10, see DESIGN.md). Every function regenerates the rows/series
   the corresponding paper artefact reports. *)
open Yasksite
open Exp
module Measure = Engine.Measure

(* ------------------------------------------------------------------ *)
(* E1 — testbed characteristics table *)

let e1 () =
  header "e1" "Testbed characteristics (full-size machine models)";
  List.iter
    (fun m ->
      Table.print (Machine.describe m);
      print_newline ())
    [ Machine.cascade_lake; Machine.rome ];
  Printf.printf
    "Measurements below run on the 8x cache-scaled versions (%s, %s) with\n\
     working sets scaled alike; see DESIGN.md for the substitution rationale.\n"
    clx.Machine.name rome.Machine.name

(* ------------------------------------------------------------------ *)
(* E2 — stencil suite properties table *)

let e2 () =
  header "e2" "Stencil suite: static properties";
  let tbl =
    Table.create
      ~columns:
        (List.map
           (fun c -> (c, Table.Left))
           [ "name"; "rank"; "shape"; "radius"; "flops"; "loads";
             "B_c [B/LUP]"; "FLOP/B" ])
      ()
  in
  List.iter
    (fun s ->
      Table.add_row tbl (Stencil.Analysis.describe (Stencil.Analysis.of_spec s)))
    Stencil.Suite.all;
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* E3 / E4 — single-core ECM prediction vs measurement *)

let single_core_experiment machine =
  let tbl =
    Table.create
      ~columns:
        [ ("stencil", Table.Left); ("grid", Table.Left);
          ("pred cy/CL", Table.Right); ("meas cy/CL", Table.Right);
          ("pred MLUP/s", Table.Right); ("meas MLUP/s", Table.Right);
          ("err", Table.Right) ]
      ()
  in
  let errors = ref [] in
  List.iter
    (fun spec ->
      let spec = Stencil.Suite.resolve_defaults spec in
      let dims = dims_for spec in
      let p, m = pred_meas machine spec dims (Config.v ()) in
      let e = err ~predicted:p.Model.t_ecm ~measured:m.Measure.cycles_per_cl in
      errors := abs_float e :: !errors;
      Table.add_row tbl
        [ spec.Stencil.Spec.name;
          String.concat "x" (Array.to_list (Array.map string_of_int dims));
          Table.cell_f p.Model.t_ecm;
          Table.cell_f m.Measure.cycles_per_cl;
          Table.cell_f ~prec:0 (mlups p.Model.lups_single);
          Table.cell_f ~prec:0 (mlups m.Measure.lups_core);
          Table.cell_pct e ])
    Stencil.Suite.eval_suite;
  Table.print tbl;
  Printf.printf "mean |error| = %s, max |error| = %s\n"
    (Table.cell_pct (Stats.mean (Array.of_list !errors)))
    (Table.cell_pct (Stats.maximum (Array.of_list !errors)))

let e3 () =
  header "e3" "Single-core ECM prediction vs measurement (Cascade Lake)";
  single_core_experiment clx

let e4 () =
  header "e4" "Single-core ECM prediction vs measurement (Rome)";
  single_core_experiment rome

(* ------------------------------------------------------------------ *)
(* E5 — multicore scaling and bandwidth saturation *)

let scaling_experiment machine spec measured_threads =
  let spec = Stencil.Suite.resolve_defaults spec in
  let dims = dims_for spec in
  let info = Stencil.Analysis.of_spec spec in
  let predicted =
    Model.chip_scaling machine info ~dims ~config:Config.default
      ~max_threads:machine.Machine.cores
  in
  let measured =
    List.map
      (fun n ->
        ( float_of_int n,
          glups (Measure.lups_at_threads machine spec ~dims ~config:Config.default
                   ~threads:n) ))
      measured_threads
  in
  let p0 =
    Model.predict machine info ~dims ~config:Config.default
  in
  Printf.printf "%s on %s: predicted saturation at %d cores (ceiling %.2f GLUP/s)\n"
    spec.Stencil.Spec.name machine.Machine.name p0.Model.saturation_cores
    (glups p0.Model.lups_saturated);
  print_string
    (Chart.line
       ~title:
         (Printf.sprintf "%s scaling on %s" spec.Stencil.Spec.name
            machine.Machine.name)
       ~x_label:"cores" ~y_label:"GLUP/s"
       [ { Chart.label = "predicted";
           points =
             Array.map (fun (n, l) -> (float_of_int n, glups l)) predicted };
         { Chart.label = "measured"; points = Array.of_list measured } ]);
  let tbl =
    Table.create
      ~columns:
        [ ("cores", Table.Right); ("pred GLUP/s", Table.Right);
          ("meas GLUP/s", Table.Right); ("err", Table.Right) ]
      ()
  in
  List.iter
    (fun n ->
      let _, pl = predicted.(n - 1) in
      let ml =
        List.assoc (float_of_int n) measured
      in
      Table.add_row tbl
        [ string_of_int n;
          Table.cell_f (glups pl);
          Table.cell_f ml;
          Table.cell_pct (err ~predicted:(glups pl) ~measured:ml) ])
    measured_threads;
  Table.print tbl

let e5 () =
  header "e5" "Multicore scaling and bandwidth saturation, pred vs meas";
  scaling_experiment clx Stencil.Suite.heat_3d_7pt [ 1; 2; 4; 8; 12; 16; 20 ];
  print_newline ();
  scaling_experiment clx Stencil.Suite.heat_2d_5pt [ 1; 2; 4; 8; 12; 16; 20 ];
  print_newline ();
  scaling_experiment rome Stencil.Suite.heat_3d_7pt [ 1; 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E6 — spatial blocking sweep and layer conditions *)

let e6 () =
  header "e6" "Spatial blocking sweep: layer conditions vs performance";
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let dims = [| 64; 96; 96 |] in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "heat-3d-7pt, %s, single core, y-block sweep"
           clx.Machine.name)
      ~columns:
        [ ("y-block", Table.Right); ("L1 cond", Table.Left);
          ("L2 cond", Table.Left); ("pred B/LUP L2", Table.Right);
          ("meas B/LUP L2", Table.Right); ("pred MLUP/s", Table.Right);
          ("meas MLUP/s", Table.Right) ]
      ()
  in
  let cond_name = function
    | Lc.All_fits -> "fits"
    | Lc.Outer_reuse -> "3D-LC"
    | Lc.Row_reuse -> "2D-LC"
    | Lc.No_reuse -> "broken"
  in
  let series_pred = ref [] and series_meas = ref [] in
  List.iter
    (fun by ->
      let config =
        if by = 0 then Config.v () else Config.v ~block:[| 0; by; 96 |] ()
      in
      let p, m = pred_meas clx spec dims config in
      let line_bytes = float_of_int (Machine.line_bytes clx) in
      let meas_l2_bpl = m.Measure.lines_per_cl.(1) *. line_bytes /. 8.0 in
      let by_label = if by = 0 then 96 else by in
      series_pred := (float_of_int by_label, mlups p.Model.lups_single) :: !series_pred;
      series_meas := (float_of_int by_label, mlups m.Measure.lups_core) :: !series_meas;
      Table.add_row tbl
        [ (if by = 0 then "none" else string_of_int by);
          cond_name p.Model.boundaries.(0).Lc.condition;
          cond_name p.Model.boundaries.(1).Lc.condition;
          Table.cell_f p.Model.boundaries.(1).Lc.bytes_per_lup;
          Table.cell_f meas_l2_bpl;
          Table.cell_f ~prec:0 (mlups p.Model.lups_single);
          Table.cell_f ~prec:0 (mlups m.Measure.lups_core) ])
    [ 2; 4; 8; 16; 32; 64; 0 ];
  Table.print tbl;
  print_string
    (Chart.line ~title:"performance vs y-block size" ~x_label:"y-block"
       ~y_label:"MLUP/s"
       [ { Chart.label = "predicted"; points = Array.of_list (List.rev !series_pred) };
         { Chart.label = "measured"; points = Array.of_list (List.rev !series_meas) } ])

(* ------------------------------------------------------------------ *)
(* E7 — vector folding *)

let folding_experiment machine folds =
  List.iter
    (fun spec ->
      let spec = Stencil.Suite.resolve_defaults spec in
      let dims = dims_for spec in
      let tbl =
        Table.create
          ~title:
            (Printf.sprintf "%s on %s" spec.Stencil.Spec.name
               machine.Machine.name)
          ~columns:
            [ ("fold", Table.Left); ("pred L1 lines/CL", Table.Right);
              ("meas L1 lines/CL", Table.Right); ("pred MLUP/s", Table.Right);
              ("meas MLUP/s", Table.Right) ]
          ()
      in
      List.iter
        (fun fold ->
          let config =
            match fold with
            | None -> Config.v ()
            | Some f -> Config.v ~fold:f ()
          in
          let p, m = pred_meas machine spec dims config in
          Table.add_row tbl
            [ (match fold with
              | None -> "linear"
              | Some f ->
                  String.concat "x" (Array.to_list (Array.map string_of_int f)));
              Table.cell_f p.Model.boundaries.(0).Lc.lines_per_cl;
              Table.cell_f m.Measure.lines_per_cl.(0);
              Table.cell_f ~prec:0 (mlups p.Model.lups_single);
              Table.cell_f ~prec:0 (mlups m.Measure.lups_core) ])
        folds;
      Table.print tbl;
      print_newline ())
    [ Stencil.Suite.heat_3d_7pt; Stencil.Suite.box_3d_27pt;
      Stencil.Suite.star_3d_r2 ]

let e7 () =
  header "e7" "Vector folding: cache-line utilisation and performance";
  folding_experiment clx
    [ None; Some [| 1; 2; 4 |]; Some [| 1; 4; 2 |]; Some [| 2; 2; 2 |];
      Some [| 1; 8; 1 |] ];
  folding_experiment rome [ None; Some [| 1; 2; 2 |]; Some [| 2; 2; 1 |] ]

(* ------------------------------------------------------------------ *)
(* E8 — temporal (wavefront) blocking *)

let wavefront_experiment machine spec =
  let spec = Stencil.Suite.resolve_defaults spec in
  (* Memory-bound working sets even for 2D: temporal blocking targets
     the memory boundary. *)
  let dims =
    match spec.Stencil.Spec.rank with
    | 2 -> [| 768; 768 |]
    | _ -> dims_for spec
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s on %s, single core" spec.Stencil.Spec.name
           machine.Machine.name)
      ~columns:
        [ ("wf depth", Table.Right); ("pred B/LUP mem", Table.Right);
          ("meas B/LUP mem", Table.Right); ("pred speedup", Table.Right);
          ("meas speedup", Table.Right) ]
      ()
  in
  let base_pred = ref 1.0 and base_meas = ref 1.0 in
  List.iter
    (fun wf ->
      let config = Config.v ~wavefront:wf () in
      let p, m = pred_meas machine spec dims config in
      if wf = 1 then begin
        base_pred := p.Model.lups_single;
        base_meas := m.Measure.lups_core
      end;
      Table.add_row tbl
        [ string_of_int wf;
          Table.cell_f p.Model.mem_bytes_per_lup;
          Table.cell_f m.Measure.mem_bytes_per_lup;
          Table.cell_f (p.Model.lups_single /. !base_pred);
          Table.cell_f (m.Measure.lups_core /. !base_meas) ])
    [ 1; 2; 4; 8 ];
  Table.print tbl;
  print_newline ()

let e8 () =
  header "e8" "Temporal (wavefront) blocking: traffic reduction and speedup";
  wavefront_experiment clx Stencil.Suite.heat_3d_7pt;
  wavefront_experiment clx Stencil.Suite.heat_2d_5pt;
  wavefront_experiment clx Stencil.Suite.box_3d_27pt;
  wavefront_experiment rome Stencil.Suite.heat_3d_7pt

(* ------------------------------------------------------------------ *)
(* E9 — tuning cost: analytic model vs empirical search *)

let e9 () =
  header "e9" "Autotuning cost and quality: analytic (YaskSite) vs empirical";
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let dims = [| 64; 64; 64 |] in
  let threads = 8 in
  let c = Tuner.compare_strategies clx spec ~dims ~threads in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "heat-3d-7pt %s, %d threads, 64^3 tuning grid"
           clx.Machine.name threads)
      ~columns:
        [ ("strategy", Table.Left); ("model evals", Table.Right);
          ("kernel runs", Table.Right); ("wall [s]", Table.Right);
          ("chosen config", Table.Left); ("meas GLUP/s", Table.Right) ]
      ()
  in
  let row name (r : Tuner.result) =
    Table.add_row tbl
      [ name;
        string_of_int r.Tuner.model_evaluations;
        string_of_int r.Tuner.kernel_runs;
        Table.cell_f r.Tuner.wall_seconds;
        Config.describe r.Tuner.chosen;
        Table.cell_f (glups r.Tuner.measured_lups) ]
  in
  row "analytic (ECM)" c.Tuner.analytic;
  row "empirical search" c.Tuner.empirical;
  Table.print tbl;
  Printf.printf
    "kernel-run cost ratio: %.0fx fewer runs analytically; wall-clock ratio \
     %.1fx; analytic choice reaches %s of the empirical optimum\n"
    c.Tuner.cost_ratio c.Tuner.wall_ratio (Table.cell_pct c.Tuner.quality)

(* ------------------------------------------------------------------ *)
(* E10 — Offsite integration: variant ranking for explicit ODE methods *)

let scheme_name = function
  | `Unfused -> "unfused"
  | `Fused -> "fused"
  | `Mixed mask ->
      "mixed:"
      ^ String.concat ""
          (Array.to_list (Array.map (fun b -> if b then "f" else "u") mask))

let ode_case machine (pde : Ode.Pde.t) tab threads =
  let dx = pde.Ode.Pde.dx in
  let h = 0.2 *. dx *. dx /. (4.0 *. float_of_int pde.Ode.Pde.rank) in
  let candidates = Offsite.evaluate machine pde tab ~h ~threads in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s x %s on %s, %d threads" tab.Ode.Tableau.name
           pde.Ode.Pde.name machine.Machine.name threads)
      ~columns:
        [ ("variant", Table.Left); ("tuned", Table.Left);
          ("sweeps", Table.Right); ("pred ms/step", Table.Right);
          ("meas ms/step", Table.Right); ("err", Table.Right) ]
      ()
  in
  List.iter
    (fun (c : Offsite.candidate) ->
      Table.add_row tbl
        [ scheme_name c.Offsite.variant.Offsite.Variant.scheme;
          (if c.Offsite.tuned then "yes" else "no");
          string_of_int (Offsite.Variant.sweeps_per_step c.Offsite.variant);
          Table.cell_f ~prec:3 (1e3 *. c.Offsite.predicted_step_seconds);
          Table.cell_f ~prec:3 (1e3 *. c.Offsite.measured_step_seconds);
          Table.cell_pct
            (err ~predicted:c.Offsite.predicted_step_seconds
               ~measured:c.Offsite.measured_step_seconds) ])
    candidates;
  Table.print tbl;
  let q = Offsite.quality candidates in
  Printf.printf
    "  kendall tau %.2f | top-1 %s | selected-vs-naive speedup %.2fx | mean \
     |err| %s\n\n"
    q.Offsite.kendall
    (if q.Offsite.top1 then "correct" else "WRONG")
    q.Offsite.speedup_selected
    (Table.cell_pct q.Offsite.mean_abs_error);
  q

let ode_case_mixed machine (pde : Ode.Pde.t) tab threads =
  let dx = pde.Ode.Pde.dx in
  let h = 0.2 *. dx *. dx /. (4.0 *. float_of_int pde.Ode.Pde.rank) in
  let candidates = Offsite.evaluate_mixed machine pde tab ~h ~threads in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "%s x %s on %s, %d threads — full fusion-mask space (%d candidates)"
           tab.Ode.Tableau.name pde.Ode.Pde.name machine.Machine.name threads
           (List.length candidates))
      ~columns:
        [ ("variant", Table.Left); ("tuned", Table.Left);
          ("sweeps", Table.Right); ("pred ms/step", Table.Right);
          ("meas ms/step", Table.Right) ]
      ()
  in
  List.iter
    (fun (c : Offsite.candidate) ->
      Table.add_row tbl
        [ scheme_name c.Offsite.variant.Offsite.Variant.scheme;
          (if c.Offsite.tuned then "yes" else "no");
          string_of_int (Offsite.Variant.sweeps_per_step c.Offsite.variant);
          Table.cell_f ~prec:3 (1e3 *. c.Offsite.predicted_step_seconds);
          Table.cell_f ~prec:3 (1e3 *. c.Offsite.measured_step_seconds) ])
    candidates;
  Table.print tbl;
  let q = Offsite.quality candidates in
  Printf.printf
    "  kendall tau %.2f | top-1 %s | selected within %s of the measured      optimum\n\n"
    q.Offsite.kendall
    (if q.Offsite.top1 then "correct" else "WRONG")
    (Table.cell_pct q.Offsite.selected_gap);
  q

let e10 () =
  header "e10" "Offsite integration: ODE variant ranking, pred vs meas";
  (* Rich variant space first: every per-stage fusion mask of RK4. *)
  ignore
    (ode_case_mixed clx (Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0) Ode.Tableau.rk4 4
      : Offsite.quality);
  let qs =
    [ ode_case clx (Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0) Ode.Tableau.rk4 4;
      ode_case clx (Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0) Ode.Tableau.heun2 4;
      ode_case clx
        (Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0)
        (Ode.Tableau.pirk ~stages:2 ~iterations:2)
        4;
      ode_case clx (Ode.Pde.heat ~rank:3 ~n:64 ~alpha:1.0) Ode.Tableau.rk4 4;
      ode_case rome (Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0) Ode.Tableau.rk4 4 ]
  in
  let top1s = List.filter (fun q -> q.Offsite.top1) qs in
  Printf.printf
    "summary: top-1 correct in %d/%d cases; mean kendall tau %.2f; mean \
     selected speedup %.2fx\n"
    (List.length top1s) (List.length qs)
    (Stats.mean (Array.of_list (List.map (fun q -> q.Offsite.kendall) qs)))
    (Stats.mean
       (Array.of_list (List.map (fun q -> q.Offsite.speedup_selected) qs)))

(* ------------------------------------------------------------------ *)
(* E11 — ablation: ECM vs naive Roofline as the prediction engine *)

let e11 () =
  header "e11" "Ablation: ECM model vs naive Roofline baseline";
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "single core, %s (Roofline is config-blind)"
           clx.Machine.name)
      ~columns:
        [ ("stencil", Table.Left); ("meas MLUP/s", Table.Right);
          ("ECM MLUP/s", Table.Right); ("ECM err", Table.Right);
          ("Roofline MLUP/s", Table.Right); ("Roofline err", Table.Right) ]
      ()
  in
  let ecm_errors = ref [] and rl_errors = ref [] in
  List.iter
    (fun spec ->
      let spec = Stencil.Suite.resolve_defaults spec in
      let dims = dims_for spec in
      let info = Stencil.Analysis.of_spec spec in
      let p, m = pred_meas clx spec dims (Config.v ()) in
      let rl = Yasksite_ecm.Roofline.predict clx info ~threads:1 in
      let e_ecm =
        err ~predicted:p.Model.lups_single ~measured:m.Measure.lups_core
      in
      let e_rl =
        err ~predicted:rl.Yasksite_ecm.Roofline.lups_single
          ~measured:m.Measure.lups_core
      in
      ecm_errors := abs_float e_ecm :: !ecm_errors;
      rl_errors := abs_float e_rl :: !rl_errors;
      Table.add_row tbl
        [ spec.Stencil.Spec.name;
          Table.cell_f ~prec:0 (mlups m.Measure.lups_core);
          Table.cell_f ~prec:0 (mlups p.Model.lups_single);
          Table.cell_pct e_ecm;
          Table.cell_f ~prec:0
            (mlups rl.Yasksite_ecm.Roofline.lups_single);
          Table.cell_pct e_rl ])
    Stencil.Suite.eval_suite;
  Table.print tbl;
  Printf.printf "mean |error|: ECM %s vs Roofline %s\n"
    (Table.cell_pct (Stats.mean (Array.of_list !ecm_errors)))
    (Table.cell_pct (Stats.mean (Array.of_list !rl_errors)));
  (* Config sensitivity: Roofline cannot distinguish configurations. *)
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let dims = dims_for spec in
  Printf.printf
    "\nconfig sensitivity (heat-3d-7pt, measured MLUP/s vs ECM — Roofline \
     predicts %.0f MLUP/s for all):\n"
    (mlups
       (Yasksite_ecm.Roofline.predict clx
          (Stencil.Analysis.of_spec spec) ~threads:1)
         .Yasksite_ecm.Roofline.lups_single);
  List.iter
    (fun (label, config) ->
      let p, m = pred_meas clx spec dims config in
      Printf.printf "  %-18s ECM %5.0f  measured %5.0f\n" label
        (mlups p.Model.lups_single)
        (mlups m.Measure.lups_core))
    [ ("naive", Config.v ());
      ("blocked 8x96", Config.v ~block:[| 0; 8; 96 |] ());
      ("wavefront 4", Config.v ~wavefront:4 ());
      ("fold 1x8x1", Config.v ~fold:[| 1; 8; 1 |] ()) ]

(* ------------------------------------------------------------------ *)
(* E12 — method-level ranking (stability-limited cost per unit time) *)

let e12 () =
  header "e12"
    "Offsite method ranking: stability-limited cost per simulated second";
  let pde = Ode.Pde.heat ~rank:2 ~n:384 ~alpha:1.0 in
  let methods =
    [ Ode.Tableau.euler; Ode.Tableau.heun2; Ode.Tableau.rk4;
      Ode.Tableau.dopri5 ]
  in
  let choices = Offsite.rank_methods clx pde methods ~threads:4 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s on %s, 4 threads" pde.Ode.Pde.name
           clx.Machine.name)
      ~columns:
        [ ("method", Table.Left); ("order", Table.Right);
          ("h_stable", Table.Right); ("best variant", Table.Left);
          ("pred s/unit", Table.Right); ("meas s/unit", Table.Right) ]
      ()
  in
  List.iter
    (fun (c : Offsite.method_choice) ->
      Table.add_row tbl
        [ c.Offsite.tableau.Ode.Tableau.name;
          string_of_int c.Offsite.tableau.Ode.Tableau.order;
          Printf.sprintf "%.2e" c.Offsite.h_stable;
          scheme_name c.Offsite.candidate.Offsite.variant.Offsite.Variant.scheme
          ^ (if c.Offsite.candidate.Offsite.tuned then "+tuned" else "");
          Table.cell_f c.Offsite.predicted_time_per_unit;
          Table.cell_f c.Offsite.measured_time_per_unit ])
    choices;
  Table.print tbl;
  let pred =
    Array.of_list
      (List.map (fun c -> c.Offsite.predicted_time_per_unit) choices)
  in
  let meas =
    Array.of_list
      (List.map (fun c -> c.Offsite.measured_time_per_unit) choices)
  in
  Printf.printf
    "method-ranking kendall tau %.2f, top-1 %s (note: stability-limited \
     cost only; accuracy orders differ)\n"
    (Stats.kendall_tau pred meas)
    (if Stats.top1_agrees ~better_is_lower:true pred meas then "correct"
     else "WRONG")

(* ------------------------------------------------------------------ *)
(* E13 — extension: accuracy-constrained method + implementation choice *)

let e13 () =
  header "e13"
    "Offsite extension: cheapest method + variant for a target accuracy";
  let pde = Ode.Pde.heat ~rank:2 ~n:64 ~alpha:1.0 in
  let methods =
    [ Ode.Tableau.euler; Ode.Tableau.heun2; Ode.Tableau.rk4;
      Ode.Tableau.dopri5 ]
  in
  List.iter
    (fun tol ->
      let choices =
        Offsite.rank_methods_at_accuracy clx pde methods ~t_end:0.002 ~tol
          ~threads:4
      in
      let tbl =
        Table.create
          ~title:
            (Printf.sprintf "%s, t_end = 0.002, tol = %.0e, 4 threads"
               pde.Ode.Pde.name tol)
          ~columns:
            [ ("method", Table.Left); ("order", Table.Right);
              ("steps", Table.Right); ("achieved err", Table.Right);
              ("variant", Table.Left); ("pred ms", Table.Right);
              ("meas ms", Table.Right) ]
          ()
      in
      List.iter
        (fun (c : Offsite.accuracy_choice) ->
          Table.add_row tbl
            [ c.Offsite.tableau_a.Ode.Tableau.name;
              string_of_int c.Offsite.tableau_a.Ode.Tableau.order;
              string_of_int c.Offsite.steps;
              Printf.sprintf "%.1e" c.Offsite.achieved_error;
              scheme_name
                c.Offsite.candidate_a.Offsite.variant.Offsite.Variant.scheme;
              Table.cell_f (1e3 *. c.Offsite.predicted_seconds);
              Table.cell_f (1e3 *. c.Offsite.measured_seconds) ])
        choices;
      Table.print tbl;
      let pred =
        Array.of_list (List.map (fun c -> c.Offsite.predicted_seconds) choices)
      in
      let meas =
        Array.of_list (List.map (fun c -> c.Offsite.measured_seconds) choices)
      in
      Printf.printf "  kendall tau %.2f, top-1 %s\n\n"
        (Stats.kendall_tau pred meas)
        (if Stats.top1_agrees ~better_is_lower:true pred meas then "correct"
         else "WRONG"))
    [ 1e-3; 1e-9 ]

(* ------------------------------------------------------------------ *)
(* E14 — resilient tuning: quality and cost of the empirical sweep
   under an injected fault plan, against the analytic tuner *)

let e14 () =
  header "e14"
    "Resilient tuning under injected faults: quality/cost vs fault rate";
  let fault_seed = 42 in
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt in
  let dims = [| 256; 256 |] in
  let threads = 4 in
  Printf.printf
    "fault plan: seed %d, lognormal noise sigma 0.05, outlier rate 0.05 \
     (x4.0);\nretry cap 4, 2 repeats per candidate, median + MAD rejection. \
     All runs\nare reproducible from the seed.\n"
    fault_seed;
  let machines =
    List.filter_map
      (fun path ->
        match Machine_file.load path with
        | Ok m -> Some (Machine.scaled ~factor:8 m)
        | Error msg ->
            Printf.printf "skipping %s: %s\n" path msg;
            None)
      [ "machines/skylake-sp.machine"; "machines/zen3.machine" ]
  in
  List.iter
    (fun m ->
      let analytic = Tuner.tune_analytic m spec ~dims ~threads in
      let tbl =
        Table.create
          ~title:
            (Printf.sprintf "heat-2d-5pt on %s, %d threads, 256^2 grid"
               m.Machine.name threads)
          ~columns:
            [ ("fail rate", Table.Right); ("kernel runs", Table.Right);
              ("attempts", Table.Right); ("skipped", Table.Right);
              ("degraded", Table.Left); ("emp GLUP/s", Table.Right);
              ("quality", Table.Right); ("cost ratio", Table.Right) ]
          ()
      in
      List.iter
        (fun fail_rate ->
          let faults =
            Faults.Plan.v ~seed:fault_seed ~fail_rate ~noise_sigma:0.05
              ~outlier_rate:0.05 ~outlier_factor:4.0 ()
          in
          let policy = Faults.Policy.v ~max_attempts:4 ~repeats:2 () in
          let emp =
            Tuner.tune_empirical ~faults ~policy m spec ~dims ~threads
          in
          Table.add_row tbl
            [ Printf.sprintf "%.2f" fail_rate;
              string_of_int emp.Tuner.kernel_runs;
              string_of_int emp.Tuner.attempts;
              string_of_int (List.length emp.Tuner.skipped);
              (if emp.Tuner.degraded then "yes" else "no");
              Table.cell_f (glups emp.Tuner.measured_lups);
              (* quality: how close the analytic (zero-run) choice gets
                 to what the fault-ridden empirical sweep found *)
              Table.cell_pct
                (analytic.Tuner.measured_lups /. emp.Tuner.measured_lups);
              Printf.sprintf "%.0fx"
                (float_of_int emp.Tuner.kernel_runs
                /. float_of_int analytic.Tuner.kernel_runs) ])
        [ 0.0; 0.1; 0.3; 0.5 ];
      Table.print tbl;
      print_newline ())
    machines;
  Printf.printf
    "The analytic tuner needs one validation run regardless of the fault \
     rate;\nthe empirical sweep pays for every retry and loses candidates \
     as the rate\nclimbs, degrading to model ranking past the policy \
     threshold.\n"

(* ------------------------------------------------------------------ *)
(* E15 — domain-parallel execution and ECM memoization: tuning-sweep
   wall clock (sequential cold / parallel cold / parallel warm),
   pool-invariance of the empirical sweep, and the Offsite memo-cache
   hit rate. Writes the machine-readable record bench/BENCH_parallel.json. *)

let e15 () =
  header "e15"
    "Domain-parallel tuning and ECM memoization (BENCH_parallel.json)";
  let domains = 4 in
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let info = Stencil.Analysis.of_spec spec in
  let dims = [| 64; 64; 64 |] in
  let threads = 8 in
  Pool.with_pool ~domains @@ fun pool ->
  (* Analytic ranking three ways: sequential on a cold cache, the pool
     on a cold cache, and the pool on the now-warm cache — the steady
     state of repeated rankings (resumed tunes, Offsite re-scoring). *)
  let seq_cache = Model_cache.create () in
  let ranked_seq, seq_cold_s =
    time (fun () -> Advisor.rank_all ~cache:seq_cache clx info ~dims ~threads)
  in
  let par_cache = Model_cache.create () in
  let ranked_par, par_cold_s =
    time (fun () ->
        Advisor.rank_all ~cache:par_cache ~pool clx info ~dims ~threads)
  in
  (* Warm timing is short; take the best of three to shed scheduler
     noise. *)
  let ranked_warm, par_warm_s =
    let best = ref infinity and last = ref ranked_par in
    for _ = 1 to 3 do
      let r, s =
        time (fun () ->
            Advisor.rank_all ~cache:par_cache ~pool clx info ~dims ~threads)
      in
      last := r;
      if s < !best then best := s
    done;
    (!last, !best)
  in
  let same_ranking =
    let configs l = List.map (fun (c, _) -> Config.describe c) l in
    configs ranked_seq = configs ranked_par
    && configs ranked_seq = configs ranked_warm
  in
  let cs = Model_cache.stats par_cache in
  let speedup_cold = seq_cold_s /. par_cold_s in
  let speedup_warm = seq_cold_s /. par_warm_s in
  Printf.printf
    "analytic ranking (%d candidates, %d domains):\n\
    \  sequential, cold cache  %.4f s\n\
    \  parallel,   cold cache  %.4f s  (%.2fx)\n\
    \  parallel,   warm cache  %.4f s  (%.2fx, %d hits / %d misses)\n\
    \  rankings %s\n"
    (List.length ranked_seq) domains seq_cold_s par_cold_s speedup_cold
    par_warm_s speedup_warm cs.Model_cache.hits cs.Model_cache.misses
    (if same_ranking then "identical" else "DIFFER");
  (* The empirical sweep must select the same result on the pool: every
     candidate draws faults and jitter from index-derived streams. *)
  let faults = Faults.Plan.v ~seed:42 ~fail_rate:0.1 ~noise_sigma:0.05 () in
  let policy = Faults.Policy.v ~max_attempts:4 ~repeats:2 () in
  let espec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt in
  let edims = [| 128; 128 |] in
  let emp_seq, emp_seq_s =
    time (fun () ->
        Tuner.tune_empirical ~faults ~policy clx espec ~dims:edims ~threads:4)
  in
  let emp_par, emp_par_s =
    time (fun () ->
        Tuner.tune_empirical ~faults ~policy ~pool clx espec ~dims:edims
          ~threads:4)
  in
  let emp_identical =
    Config.describe emp_seq.Tuner.chosen
    = Config.describe emp_par.Tuner.chosen
    && emp_seq.Tuner.measured_lups = emp_par.Tuner.measured_lups
    && emp_seq.Tuner.attempts = emp_par.Tuner.attempts
    && List.length emp_seq.Tuner.skipped = List.length emp_par.Tuner.skipped
  in
  Printf.printf
    "empirical sweep under faults (heat-2d-5pt, fail rate 0.10): sequential \
     %.2f s, %d domains %.2f s; outcome %s (chosen %s, %.2f GLUP/s)\n"
    emp_seq_s domains emp_par_s
    (if emp_identical then "bit-identical" else "DIFFERS")
    (Config.describe emp_par.Tuner.chosen)
    (glups emp_par.Tuner.measured_lups);
  (* Offsite variant ranking re-evaluates shared kernels: the memo
     cache absorbs the repeats. *)
  let ode_cache = Model_cache.create () in
  let pde = Ode.Pde.heat ~rank:2 ~n:96 ~alpha:1.0 in
  let _ =
    (Offsite.evaluate ~cache:ode_cache ~pool clx pde Ode.Tableau.rk4 ~h:1e-5
       ~threads:4
      : Offsite.candidate list)
  in
  let os = Model_cache.stats ode_cache in
  Printf.printf
    "offsite rk4 variant ranking: %d model-cache hits / %d misses (%.0f%% \
     hit rate)\n"
    os.Model_cache.hits os.Model_cache.misses
    (100.0 *. Model_cache.hit_rate ode_cache);
  write_json "bench/BENCH_parallel.json"
    (Obj
       [ ("domains", Int domains);
         ( "analytic_ranking",
           Obj
             [ ("candidates", Int (List.length ranked_seq));
               ("seq_cold_s", Float seq_cold_s);
               ("par_cold_s", Float par_cold_s);
               ("par_warm_s", Float par_warm_s);
               ("speedup_par_cold", Float speedup_cold);
               ("speedup_par_warm", Float speedup_warm);
               ("rankings_identical", Bool same_ranking);
               ( "cache",
                 Obj
                   [ ("hits", Int cs.Model_cache.hits);
                     ("misses", Int cs.Model_cache.misses);
                     ("hit_rate", Float (Model_cache.hit_rate par_cache)) ]
               ) ] );
         ( "empirical_tuning",
           Obj
             [ ("seq_s", Float emp_seq_s);
               ("par_s", Float emp_par_s);
               ("bit_identical", Bool emp_identical);
               ("chosen", String (Config.describe emp_par.Tuner.chosen));
               ("measured_glups", Float (glups emp_par.Tuner.measured_lups))
             ] );
         ( "offsite_ranking",
           Obj
             [ ("cache_hits", Int os.Model_cache.hits);
               ("cache_misses", Int os.Model_cache.misses);
               ("hit_rate", Float (Model_cache.hit_rate ode_cache)) ] ) ])

(* ------------------------------------------------------------------ *)
(* E16 — the plan driver skips per-point bounds checks: a sanitized
   pass over the legal tuning space of both shipped machine models
   confirms it traps nowhere the schedule analyzer allows. Writes
   bench/BENCH_plan.json. *)

let e16 () =
  header "e16" "Plan driver over the sanitized legal space (BENCH_plan.json)";
  let module Sanitizer = Engine.Sanitizer in
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt in
  let dims = [| 24; 24 |] in
  let info = Stencil.Analysis.of_spec spec in
  let legal_rows =
    List.map
      (fun m ->
        let space = Advisor.space m ~dims:dims ~threads:2 ~rank:2 in
        let legal = List.filter (Lint.Schedule.legal info ~dims:dims) space in
        let traps = ref 0 in
        List.iter
          (fun config ->
            try
              ignore
                (Engine.Measure.stencil_sweep ~sanitize:true m spec
                   ~dims:dims ~config
                  : Measure.t)
            with Sanitizer.Trap _ -> incr traps)
          legal;
        Printf.printf
          "%s: %d legal candidates of %d swept under the sanitizer, %d traps\n"
          m.Machine.name (List.length legal) (List.length space) !traps;
        (m, List.length space, List.length legal, !traps))
      [ clx; rome ]
  in
  write_json "bench/BENCH_plan.json"
    (Obj
       [ ( "sanitized_legal_space",
           List
             (List.map
                (fun (m, space, legal, traps) ->
                  Json.Obj
                    [ ("machine", String m.Machine.name);
                      ("candidates", Int space);
                      ("legal", Int legal);
                      ("traps", Int traps) ])
                legal_rows) ) ])

(* E17 — what a safety certificate buys: wall clock of the sanitized
   sweep on the fully checked path (per-point shadow reads/writes) vs
   the certified fast path (shadow state bulk-committed), against the
   unsanitized sweep as the zero-overhead baseline. Outputs of all
   three paths are asserted bit-identical. Writes
   bench/BENCH_certify.json. *)

let e17 () =
  header "e17" "Checked vs certified sanitized sweeps (BENCH_certify.json)";
  let module Sweep = Engine.Sweep in
  let module Sanitizer = Engine.Sanitizer in
  let module Cert = Engine.Cert in
  let module Certify = Engine.Certify in
  let case (spec, dims, reps) =
    let spec = Stencil.Suite.resolve_defaults spec in
    let info = Stencil.Analysis.of_spec spec in
    let halo = Stencil.Analysis.halo info in
    let prng = Yasksite_util.Prng.create ~seed:17 in
    let a = Grid.create ~halo ~dims () in
    Grid.fill a ~f:(fun _ ->
        Yasksite_util.Prng.float_range prng ~lo:(-1.0) ~hi:1.0);
    Grid.halo_dirichlet a 0.25;
    (* Each rep gets a fresh sanitizer (shadow state is per pass
       sequence) but shares grids; best-of-3 sheds scheduler noise. *)
    let run ~mode =
      let o = Grid.create ~halo ~dims () in
      let best = ref infinity in
      for _ = 1 to 3 do
        Cert.clear ();
        (match mode with
        | `Certified ->
            ignore
              (Certify.ensure spec ~inputs:[| a |] ~output:o
                 ~config:Config.default
                : bool)
        | `Checked | `Baseline -> ());
        let (_ : int), s =
          time (fun () ->
              for _ = 1 to reps do
                let sanitize =
                  match mode with
                  | `Baseline -> None
                  | `Checked | `Certified -> Some (Sanitizer.create ())
                in
                ignore
                  (Sweep.run ?sanitize spec ~inputs:[| a |] ~output:o
                    : Sweep.stats)
              done;
              0)
        in
        if s < !best then best := s
      done;
      let hits = Cert.fast_path_hits () in
      (o, !best, hits)
    in
    let o_base, base_s, _ = run ~mode:`Baseline in
    let o_checked, checked_s, checked_hits = run ~mode:`Checked in
    let o_cert, cert_s, cert_hits = run ~mode:`Certified in
    assert (checked_hits = 0);
    assert (cert_hits = reps);
    let identical =
      Grid.max_abs_diff o_base o_checked = 0.0
      && Grid.max_abs_diff o_base o_cert = 0.0
    in
    let points = Array.fold_left ( * ) 1 dims in
    Printf.printf
      "%-14s %-12s %7d pts x%d: plain %.4f s, checked %.4f s (%.2fx), \
       certified %.4f s (%.2fx, outputs %s)\n"
      spec.Stencil.Spec.name
      (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
      points reps base_s checked_s (checked_s /. base_s) cert_s
      (cert_s /. base_s)
      (if identical then "bit-identical" else "DIFFER");
    (spec, dims, points, reps, base_s, checked_s, cert_s, identical)
  in
  let cases =
    List.map case
      [ (Stencil.Suite.heat_2d_5pt, [| 384; 384 |], 6);
        (Stencil.Suite.heat_3d_7pt, [| 64; 64; 64 |], 4) ]
  in
  write_json "bench/BENCH_certify.json"
    (Obj
       [ ( "sweeps",
           List
             (List.map
                (fun (spec, dims, points, reps, base_s, checked_s, cert_s, id) ->
                  Json.Obj
                    [ ("stencil", String spec.Stencil.Spec.name);
                      ("dims", ints dims);
                      ("points", Int points);
                      ("reps", Int reps);
                      ("plain_s", Float base_s);
                      ("checked_s", Float checked_s);
                      ("certified_s", Float cert_s);
                      ("checked_overhead", Float (checked_s /. base_s));
                      ("certified_overhead", Float (cert_s /. base_s));
                      ( "certified_speedup_vs_checked",
                        Float (checked_s /. cert_s) );
                      ("bit_identical", Bool id) ])
                cases) ) ])

(* ------------------------------------------------------------------ *)
(* E18 — persistent store: warm starts, corruption, degraded mode.
   A second process (simulated by a fresh model cache on the same store
   root) warm-starts the analytic ranking from disk; an adversarially
   corrupted root is detected by [store verify] and only costs
   recomputation; an unusable root leaves results bit-identical to a
   store-less run. Writes bench/BENCH_store.json. *)

let e18 () =
  header "e18"
    "Persistent tuning store: warm start, corruption, degraded mode \
     (BENCH_store.json)";
  let entry_files root =
    let acc = ref [] in
    let rec walk dir =
      match Sys.readdir dir with
      | names ->
          Array.iter
            (fun n ->
              let p = Filename.concat dir n in
              if Sys.is_directory p then walk p
              else if not (String.length n > 0 && n.[0] = '.') then
                acc := p :: !acc)
            names
      | exception Sys_error _ -> ()
    in
    walk (Filename.concat root "objects");
    List.sort compare !acc
  in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "yasksite-bench-store-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_3d_7pt in
  let info = Stencil.Analysis.of_spec spec in
  let dims = [| 64; 64; 64 |] in
  let threads = 8 in
  (* Store-less baseline: what every degraded mode must reproduce. *)
  let base_cache = Model_cache.create () in
  let ranked_base =
    Advisor.rank_all ~cache:base_cache clx info ~dims ~threads
  in
  (* Cold: fresh cache, fresh root — every prediction is computed and
     spilled through the store. *)
  let s_cold = Store.open_root root in
  let cold_cache = Model_cache.create () in
  Model_cache.attach_store cold_cache s_cold;
  let ranked_cold, cold_s =
    time (fun () -> Advisor.rank_all ~cache:cold_cache clx info ~dims ~threads)
  in
  let cold_cs = Model_cache.stats cold_cache in
  (* Warm from disk: a fresh cache on the same root simulates a second
     process — memory is cold, the store serves every miss. *)
  let s_warm = Store.open_root root in
  let warm_cache = Model_cache.create () in
  Model_cache.attach_store warm_cache s_warm;
  let ranked_warm, warm_s =
    time (fun () -> Advisor.rank_all ~cache:warm_cache clx info ~dims ~threads)
  in
  let warm_cs = Model_cache.stats warm_cache in
  let cold_entries = (Store.usage s_cold).Store.entries in
  let ranking_identical =
    ranked_base = ranked_cold && ranked_cold = ranked_warm
  in
  Printf.printf
    "analytic ranking (%d candidates):\n\
    \  cold, empty store   %.4f s  (%d store misses, %d entries spilled)\n\
    \  warm from disk      %.4f s  (%.2fx, %d store hits / %d misses)\n\
    \  rankings %s across store-less, cold and warm runs\n"
    (List.length ranked_cold) cold_s cold_cs.Model_cache.store_misses
    cold_entries warm_s (cold_s /. warm_s)
    warm_cs.Model_cache.store_hits warm_cs.Model_cache.store_misses
    (if ranking_identical then "bit-identical" else "DIFFER");
  (* Offsite variant ranking: the cold model-cache hit rate is the E15
     baseline (repeated kernels inside one ranking); warm-from-disk
     converts the remaining misses into store hits. *)
  let pde = Ode.Pde.heat ~rank:2 ~n:96 ~alpha:1.0 in
  let off_cold_cache = Model_cache.create () in
  Model_cache.attach_store off_cold_cache (Store.open_root root);
  let _ =
    (Offsite.evaluate ~cache:off_cold_cache clx pde Ode.Tableau.rk4 ~h:1e-5
       ~threads:4
      : Offsite.candidate list)
  in
  let oc_cold = Model_cache.stats off_cold_cache in
  let off_warm_cache = Model_cache.create () in
  Model_cache.attach_store off_warm_cache (Store.open_root root);
  let _ =
    (Offsite.evaluate ~cache:off_warm_cache clx pde Ode.Tableau.rk4 ~h:1e-5
       ~threads:4
      : Offsite.candidate list)
  in
  let oc_warm = Model_cache.stats off_warm_cache in
  let rate hits total = if total = 0 then 0.0 else float_of_int hits /. float_of_int total in
  let cold_rate = rate oc_cold.Model_cache.hits (oc_cold.Model_cache.hits + oc_cold.Model_cache.misses) in
  let warm_rate =
    rate
      (oc_warm.Model_cache.hits + oc_warm.Model_cache.store_hits)
      (oc_warm.Model_cache.hits + oc_warm.Model_cache.misses)
  in
  Printf.printf
    "offsite rk4 ranking: cold %.1f%% model-cache hit rate; warm from disk \
     %.1f%% served without model evaluation (%d memory + %d store hits)\n"
    (100.0 *. cold_rate) (100.0 *. warm_rate) oc_warm.Model_cache.hits
    oc_warm.Model_cache.store_hits;
  (* Adversarial corruption: truncate, scribble over and mis-file
     entries, then let [verify] find them and the pipeline recompute. *)
  let files = entry_files root in
  let planted =
    match files with
    | a :: b :: c :: _ ->
        Out_channel.with_open_bin a (fun oc ->
            Out_channel.output_string oc "scribbled over");
        Out_channel.with_open_bin b (fun _ -> () (* truncated to empty *));
        Sys.rename c
          (Filename.concat (Filename.dirname c)
             "00000000000000000000000000000000");
        3
    | _ -> 0
  in
  let s_verify = Store.open_root root in
  let v1 = Store.verify s_verify in
  let post_cache = Model_cache.create () in
  Model_cache.attach_store post_cache (Store.open_root root);
  let ranked_post =
    Advisor.rank_all ~cache:post_cache clx info ~dims ~threads
  in
  let v2 = Store.verify (Store.open_root root) in
  Printf.printf
    "corruption: planted %d bad entries; verify flagged %d/%d, re-ranking \
     stayed %s and repaired the root (rescan: %d bad)\n"
    planted v1.Store.bad v1.Store.scanned
    (if ranked_post = ranked_base then "bit-identical" else "DIFFERENT")
    v2.Store.bad;
  (* Degraded mode: an unusable root must cost nothing but the misses. *)
  let dead_cache = Model_cache.create () in
  Model_cache.attach_store dead_cache (Store.open_root "/dev/null/nope");
  let ranked_dead =
    Advisor.rank_all ~cache:dead_cache clx info ~dims ~threads
  in
  let degraded_identical = ranked_dead = ranked_base in
  Printf.printf "degraded (unusable root): ranking %s vs store-less run\n"
    (if degraded_identical then "bit-identical" else "DIFFERENT");
  write_json "bench/BENCH_store.json"
    (Obj
       [ ( "ranking",
           Obj
             [ ("candidates", Int (List.length ranked_cold));
               ("cold_s", Float cold_s);
               ("warm_from_disk_s", Float warm_s);
               ("speedup_warm", Float (cold_s /. warm_s));
               ("bit_identical", Bool ranking_identical);
               ( "cold_store",
                 Obj
                   [ ("hits", Int cold_cs.Model_cache.store_hits);
                     ("misses", Int cold_cs.Model_cache.store_misses);
                     ("entries", Int cold_entries) ] );
               ( "warm_store",
                 Obj
                   [ ("hits", Int warm_cs.Model_cache.store_hits);
                     ("misses", Int warm_cs.Model_cache.store_misses) ] ) ] );
         ( "offsite",
           Obj
             [ ("cold_hit_rate", Float cold_rate);
               ("warm_no_eval_rate", Float warm_rate);
               ("warm_memory_hits", Int oc_warm.Model_cache.hits);
               ("warm_store_hits", Int oc_warm.Model_cache.store_hits);
               ("warm_store_misses", Int oc_warm.Model_cache.store_misses) ] );
         ( "corruption",
           Obj
             [ ("planted", Int planted);
               ("verify_scanned", Int v1.Store.scanned);
               ("verify_bad", Int v1.Store.bad);
               ("reranking_bit_identical", Bool (ranked_post = ranked_base));
               ("rescan_bad", Int v2.Store.bad) ] );
         ("degraded_root_bit_identical", Bool degraded_identical) ])

(* ------------------------------------------------------------------ *)
(* E19 — the codegen backend: kernels specialized per plan fingerprint,
   compiled out of process and cached. Sweep wall clock against the
   plan interpreter (bit-identical outputs asserted), plus the compile-cache economics: first sweep against an
   empty store (pays the compiler) vs a fresh process warm-starting
   from the store (pays only the Dynlink load). Writes
   bench/BENCH_codegen.json. *)

let e19 () =
  header "e19" "Codegen backend vs plan backend (BENCH_codegen.json)";
  let module Sweep = Engine.Sweep in
  let module Native = Engine.Native in
  if not (Native.available ()) then begin
    (* No toolchain here: the backend falls back to the plan
       interpreter (covered by tests); record that and bail. *)
    Printf.printf
      "no OCaml toolchain available: codegen falls back to the plan \
       interpreter; nothing to measure\n";
    write_json "bench/BENCH_codegen.json" (Obj [ ("toolchain", Bool false) ])
  end
  else begin
    let sweep_case (spec, dims, reps) =
      let spec = Stencil.Suite.resolve_defaults spec in
      let info = Stencil.Analysis.of_spec spec in
      let halo = Stencil.Analysis.halo info in
      let rank = spec.Stencil.Spec.rank in
      let prng = Yasksite_util.Prng.create ~seed:(19 * rank) in
      let a = Grid.create ~halo ~dims () in
      Grid.fill a ~f:(fun _ ->
          Yasksite_util.Prng.float_range prng ~lo:(-1.0) ~hi:1.0);
      Grid.halo_dirichlet a 0.25;
      let run backend =
        let o = Grid.create ~halo ~dims () in
        (* Warm-up sweep first so the codegen timing measures the
           kernel, not its one-time compile; then best-of-3 over [reps]
           back-to-back sweeps to shed scheduler noise. *)
        ignore (Sweep.run ~backend spec ~inputs:[| a |] ~output:o
                 : Sweep.stats);
        let best = ref infinity in
        for _ = 1 to 3 do
          let (_ : Sweep.stats), s =
            time (fun () ->
                let acc = ref Sweep.zero_stats in
                for _ = 1 to reps do
                  acc :=
                    Sweep.add_stats !acc
                      (Sweep.run ~backend spec ~inputs:[| a |] ~output:o)
                done;
                !acc)
          in
          if s < !best then best := s
        done;
        (o, !best)
      in
      let o_plan, plan_s = run Sweep.Plan_backend in
      let o_codegen, codegen_s = run Sweep.Codegen_backend in
      let identical = Grid.max_abs_diff o_plan o_codegen = 0.0 in
      let points = Array.fold_left ( * ) 1 dims in
      let vs_plan = plan_s /. codegen_s in
      Printf.printf
        "%-14s rank %d %-12s %7d pts x%d: plan %.4f s, codegen %.4f s \
         (%.2fx, outputs %s)\n"
        spec.Stencil.Spec.name rank
        (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
        points reps plan_s codegen_s vs_plan
        (if identical then "bit-identical" else "DIFFER");
      (spec, dims, points, reps, plan_s, codegen_s, vs_plan, identical)
    in
    let cases =
      List.map sweep_case
        [ (Stencil.Suite.heat_2d_5pt, [| 512; 512 |], 8);
          (Stencil.Suite.box_2d_9pt, [| 512; 512 |], 8);
          (Stencil.Suite.heat_3d_7pt, [| 96; 96; 96 |], 4) ]
    in
    (* Compile-cache economics on a throwaway store root: the cold
       first sweep pays the out-of-process compiler, a fresh process
       on the same root revives the compiled kernel and pays only the
       load. *)
    let root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "yasksite-bench-kern-%d" (Unix.getpid ()))
    in
    rm_rf root;
    let cold_s, warm_s, cold_stats, warm_stats =
      Fun.protect
        ~finally:(fun () ->
          Native.reset_for_tests ();
          rm_rf root)
      @@ fun () ->
      let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt in
      let info = Stencil.Analysis.of_spec spec in
      let halo = Stencil.Analysis.halo info in
      let dims = [| 256; 256 |] in
      let a = Grid.create ~halo ~dims () in
      Grid.fill a ~f:(fun _ -> 0.5);
      Grid.halo_dirichlet a 0.25;
      let first () =
        let o = Grid.create ~halo ~dims () in
        snd
          (time (fun () ->
               ignore
                 (Sweep.run ~backend:Sweep.Codegen_backend spec
                    ~inputs:[| a |] ~output:o
                   : Sweep.stats)))
      in
      Native.reset_for_tests ();
      Native.set_store (Some (Store.open_root root));
      let cold_s = first () in
      let cold_stats = Native.stats () in
      (* reset_for_tests simulates a fresh process: memoized kernels,
         counters and the attached store are all dropped. *)
      Native.reset_for_tests ();
      Native.set_store (Some (Store.open_root root));
      let warm_s = first () in
      let warm_stats = Native.stats () in
      (cold_s, warm_s, cold_stats, warm_stats)
    in
    Printf.printf
      "compile cache (heat-2d-5pt, 256x256, first sweep of a process):\n\
      \  cold, empty store  %.4f s  (%d compile, %d store hits)\n\
      \  warm from store    %.4f s  (%.2fx; %d compiles, %d store hit)\n"
      cold_s cold_stats.Native.compiles cold_stats.Native.store_hits warm_s
      (cold_s /. warm_s)
      warm_stats.Native.compiles warm_stats.Native.store_hits;
    let case_json (spec, dims, points, reps, plan_s, codegen_s, vs_plan, id) =
      Json.Obj
        [ ("stencil", String spec.Stencil.Spec.name);
          ("rank", Int spec.Stencil.Spec.rank);
          ("dims", ints dims);
          ("points", Int points);
          ("reps", Int reps);
          ("plan_s", Float plan_s);
          ("codegen_s", Float codegen_s);
          ("speedup_vs_plan", Float vs_plan);
          ("bit_identical", Bool id) ]
    in
    write_json "bench/BENCH_codegen.json"
      (Obj
         [ ("toolchain", Bool true);
           ("sweeps", List (List.map case_json cases));
           ( "compile_cache",
             Obj
               [ ("cold_first_sweep_s", Float cold_s);
                 ("warm_first_sweep_s", Float warm_s);
                 ("speedup_warm", Float (cold_s /. warm_s));
                 ("cold_compiles", Int cold_stats.Native.compiles);
                 ("cold_store_hits", Int cold_stats.Native.store_hits);
                 ("warm_compiles", Int warm_stats.Native.compiles);
                 ("warm_store_hits", Int warm_stats.Native.store_hits) ] ) ])
  end

(* E20 — the YS6xx translation validator: cold proof cost per suite
   kernel (pure static analysis, no toolchain needed), the kill rate of
   the seeded miscompile corpus, and the warm-path cost of the native
   certificate relative to kernel resolution (the gate must stay under
   a few percent of a store-revived resolution). Writes
   bench/BENCH_validate.json. *)

let e20 () =
  header "e20"
    "Translation-validator cost and mutation kill rate \
     (BENCH_validate.json)";
  let module Native = Engine.Native in
  let module Cert = Engine.Cert in
  let module NL = Lint.Native in
  let module Mis = Faults.Miscompile in
  (* Every suite kernel × both layouts, with its emitted source. *)
  let corpus =
    List.concat_map
      (fun spec ->
        let spec = Stencil.Suite.resolve_defaults spec in
        let plan = Stencil.Lower.lower spec in
        let rank = spec.Stencil.Spec.rank in
        let halo = Stencil.Analysis.halo (Stencil.Analysis.of_spec spec) in
        let dims = Array.init rank (fun i -> max 8 ((2 * halo.(i)) + 1)) in
        List.filter_map
          (fun (lname, layout) ->
            let space = Grid.fresh_space () in
            let mk () = Grid.create ~space ~halo ~layout ~dims () in
            let inputs =
              Array.init spec.Stencil.Spec.n_fields (fun _ -> mk ())
            in
            let output = mk () in
            let v = Stencil.Codegen.variant_of ~plan ~inputs ~output in
            match Stencil.Codegen.source ~plan v with
            | Error _ -> None
            | Ok src -> Some (spec, lname, plan, v, inputs, src))
          [ ("linear", Grid.Linear);
            ( "folded",
              Grid.Folded
                (Array.init rank (fun i -> if i = rank - 1 then 4 else 1)) ) ])
      Stencil.Suite.all
  in
  (* Cold proof cost: parse + symbolic comparison, best of 3 over a
     small batch. *)
  let reps = 50 in
  let rows =
    List.map
      (fun (spec, lname, plan, v, inputs, src) ->
        let best = ref infinity in
        for _ = 1 to 3 do
          let (), s =
            time (fun () ->
                for _ = 1 to reps do
                  match NL.check ~plan ~variant:v ~inputs src with
                  | [] -> ()
                  | _ -> failwith "legal kernel rejected"
                done)
          in
          if s < !best then best := s
        done;
        let ms = !best /. float_of_int reps *. 1e3 in
        Printf.printf "%-16s %-6s  validate %.3f ms\n" spec.Stencil.Spec.name
          lname ms;
        (spec, lname, ms))
      corpus
  in
  (* Mutation kill rate across the whole corpus. *)
  let killed = ref 0 and total = ref 0 in
  let by_class = Hashtbl.create 8 in
  List.iter
    (fun (_, _, plan, v, inputs, src) ->
      List.iter
        (fun (cls, mutant) ->
          incr total;
          let k, t =
            match Hashtbl.find_opt by_class cls with
            | Some (k, t) -> (k, t)
            | None -> (0, 0)
          in
          let codes =
            List.map
              (fun (d : Lint.Diagnostic.t) -> d.Lint.Diagnostic.code)
              (NL.check ~plan ~variant:v ~inputs mutant)
          in
          let hit = List.mem (Mis.expected_code cls) codes in
          if hit then incr killed;
          Hashtbl.replace by_class cls ((k + if hit then 1 else 0), t + 1))
        (Mis.corpus ~seed:42 ~per_class:3 src))
    corpus;
  Printf.printf "mutation corpus: %d/%d killed (%.1f%%)\n" !killed !total
    (100.0 *. float_of_int !killed /. float_of_int (max 1 !total));
  List.iter
    (fun cls ->
      match Hashtbl.find_opt by_class cls with
      | Some (k, t) ->
          Printf.printf "  %-20s %d/%d\n" (Mis.class_name cls) k t
      | None -> ())
    Mis.classes;
  (* Warm-path economics (needs the toolchain): a store-revived
     resolution with a native certificate pays only digest + lookup;
     without one it re-runs the full proof. *)
  let warm =
    if not (Native.available ()) then None
    else begin
      let root =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "yasksite-bench-validate-%d" (Unix.getpid ()))
      in
      rm_rf root;
      Fun.protect
        ~finally:(fun () ->
          Native.reset_for_tests ();
          Cert.clear ();
          Cert.set_store None;
          rm_rf root)
      @@ fun () ->
      let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt in
      let halo = Stencil.Analysis.halo (Stencil.Analysis.of_spec spec) in
      let dims = [| 64; 64 |] in
      let plan = Stencil.Lower.lower spec in
      let mk () = Grid.create ~halo ~dims () in
      let inputs = [| mk () |] and output = mk () in
      let store () = Store.open_root root in
      let attach ~certs =
        Native.reset_for_tests ();
        Cert.clear ();
        Native.set_store (Some (store ()));
        Cert.set_store (if certs then Some (store ()) else None)
      in
      (* Cold resolution: compile + full validation, certificate
         written through. *)
      attach ~certs:true;
      (match Native.kern_for ~plan ~inputs ~output with
      | Some _ -> ()
      | None -> failwith "toolchain probe lied");
      let resolve_once ~certs =
        attach ~certs;
        let r, s = time (fun () -> Native.kern_for ~plan ~inputs ~output) in
        assert (r <> None);
        (s, Native.stats ())
      in
      let best_of n f =
        let best = ref infinity and last = ref None in
        for _ = 1 to n do
          let s, st = f () in
          if s < !best then best := s;
          last := Some st
        done;
        (!best, Option.get !last)
      in
      let warm_cert_s, cert_stats =
        best_of 5 (fun () -> resolve_once ~certs:true)
      in
      let warm_val_s, val_stats =
        best_of 5 (fun () -> resolve_once ~certs:false)
      in
      (* The gate's own cost on the certified path, measured directly:
         digest of the source plus the certificate lookup. *)
      let v = Stencil.Codegen.variant_of ~plan ~inputs ~output in
      let src =
        match Stencil.Codegen.source ~plan v with
        | Ok s -> s
        | Error e -> failwith e
      in
      attach ~certs:true;
      ignore (Native.kern_for ~plan ~inputs ~output);
      let ckey = Stencil.Codegen.key ~plan v in
      let gate_reps = 200 in
      let (), gate_total =
        time (fun () ->
            for _ = 1 to gate_reps do
              let d = Digest.to_hex (Digest.string src) in
              let k = Cert.native_key ~ckey ~version:NL.version in
              match Cert.native_lookup k with
              | Some d' when d' = d -> ()
              | _ -> failwith "certificate missing"
            done)
      in
      let gate_s = gate_total /. float_of_int gate_reps in
      let overhead_pct = 100.0 *. gate_s /. warm_cert_s in
      Printf.printf
        "warm resolution (heat-2d-5pt, store-revived):\n\
        \  with certificate     %.4f ms (validations %d)\n\
        \  without certificate  %.4f ms (validations %d)\n\
        \  certificate gate     %.4f ms = %.2f%% of the certified \
         resolution\n"
        (warm_cert_s *. 1e3) cert_stats.Native.validations (warm_val_s *. 1e3)
        val_stats.Native.validations (gate_s *. 1e3) overhead_pct;
      Some (warm_cert_s, warm_val_s, gate_s, overhead_pct,
            cert_stats.Native.validations, val_stats.Native.validations)
    end
  in
  let class_json cls =
    let k, t =
      match Hashtbl.find_opt by_class cls with
      | Some kt -> kt
      | None -> (0, 0)
    in
    Json.Obj
      [ ("class", String (Mis.class_name cls));
        ("killed", Int k);
        ("total", Int t) ]
  in
  write_json "bench/BENCH_validate.json"
    (Obj
       [ ("validator_version", Int NL.version);
         ( "kernels",
           List
             (List.map
                (fun (spec, lname, ms) ->
                  Json.Obj
                    [ ("stencil", String spec.Stencil.Spec.name);
                      ("layout", String lname);
                      ("validate_ms", Float ms) ])
                rows) );
         ( "mutation",
           Obj
             [ ("killed", Int !killed);
               ("total", Int !total);
               ( "kill_rate",
                 Float (float_of_int !killed /. float_of_int (max 1 !total)) );
               ("by_class", List (List.map class_json Mis.classes)) ] );
         ( "warm_path",
           match warm with
           | None -> Obj [ ("toolchain", Bool false) ]
           | Some (c, v_, g, pct, cv, vv) ->
               Obj
                 [ ("toolchain", Bool true);
                   ("warm_certified_s", Float c);
                   ("warm_validated_s", Float v_);
                   ("gate_s", Float g);
                   ("gate_overhead_pct", Float pct);
                   ("certified_validations", Int cv);
                   ("uncertified_validations", Int vv) ] ) ])

(* ------------------------------------------------------------------ *)
(* E21 — ECM-ranked stage fusion for stencil programs. The 16-stage
   hdiff pipeline is run under a spread of fuse/materialize partitions:
   host wall clock of fused vs fully-materialized execution (plan
   backend, outputs asserted bit-identical), and — on both shipped
   machine files, at the usual 1/8 simulation scale — the agreement
   between the ECM-predicted partition ranking and rankings measured
   on the simulated machine. Writes bench/BENCH_fusion.json. *)

let e21 () =
  header "e21"
    "ECM-ranked stage fusion for stencil programs (BENCH_fusion.json)";
  let module P = Stencil.Program in
  let module Prog = Engine.Prog in
  let p = Stencil.Suite.hdiff in
  let dims = [| 256; 256 |] in
  let config = Config.v () in
  let key inline = String.concat "," (List.sort compare inline) in
  let label inline = if inline = [] then "(none)" else key inline in
  let hp = P.halo_plan p in
  let fresh_inputs () =
    let space = Grid.fresh_space () in
    ( space,
      List.map
        (fun (name, halo) ->
          let prng = Yasksite_util.Prng.create ~seed:(21 + Hashtbl.hash name) in
          let g = Grid.create ~space ~halo ~dims () in
          Grid.fill g ~f:(fun _ ->
              Yasksite_util.Prng.float_range prng ~lo:(-1.0) ~hi:1.0);
          Grid.halo_dirichlet g 0.0;
          (name, g))
        hp.P.input_halo )
  in
  let checksum g =
    let d = Grid.dims g in
    let acc = ref 0.0 in
    for y = 0 to d.(0) - 1 do
      for x = 0 to d.(1) - 1 do
        acc := !acc +. Grid.get g [| y; x |]
      done
    done;
    !acc
  in
  (* Host wall clock of a whole program run (intermediate allocation
     included — that is the cost materialization actually pays), plan
     backend, warm-up plus best-of-3. *)
  let wall_memo = Hashtbl.create 8 in
  let wall inline =
    match Hashtbl.find_opt wall_memo (key inline) with
    | Some r -> r
    | None ->
        let fp = P.fuse p ~inline in
        let space, inputs = fresh_inputs () in
        let run () = Prog.run ~config ~space fp ~inputs in
        let r0 = run () in
        let best = ref infinity in
        for _ = 1 to 3 do
          let (_ : Prog.result), s = time run in
          if s < !best then best := s
        done;
        let sums = List.map (fun (n, g) -> (n, checksum g)) r0.Prog.outputs in
        let res = (!best, sums) in
        Hashtbl.replace wall_memo (key inline) res;
        res
  in
  (* Measured partition time on the simulated machine: one cachesim
     measurement per stage at its extended extent, summed. Memoized by
     (machine, stage expression, extent) — hdiff's four symmetric
     components collapse onto the same measurements. *)
  let meas_memo = Hashtbl.create 64 in
  let measured_time m fp =
    let fhp = P.halo_plan fp in
    Array.fold_left
      (fun acc (s : P.stage) ->
        let ext = List.assoc s.P.name fhp.P.stage_ext in
        let edims = Array.mapi (fun d e -> dims.(d) + (2 * e)) ext in
        let k =
          m.Machine.name ^ "|"
          ^ Stencil.Expr.to_c s.P.expr
          ^ "|"
          ^ String.concat "," (Array.to_list (Array.map string_of_int edims))
        in
        let t =
          match Hashtbl.find_opt meas_memo k with
          | Some t -> t
          | None ->
              let meas =
                Measure.stencil_sweep m (P.stage_spec fp s) ~dims:edims
                  ~config
              in
              let pts =
                float_of_int (Array.fold_left ( * ) 1 edims)
              in
              let t = pts /. meas.Measure.lups_chip in
              Hashtbl.replace meas_memo k t;
              t
        in
        acc +. t)
      0.0 fp.P.stages
  in
  let machines =
    List.map
      (fun f ->
        match Machine_file.load f with
        | Ok m -> (f, Machine.scaled ~factor:8 m)
        | Error e -> failwith (f ^ ": " ^ e))
      [ "machines/skylake-sp.machine"; "machines/zen3.machine" ]
  in
  let per_machine =
    List.map
      (fun (file, m) ->
        let ranked = Advisor.rank_partitions m p ~dims ~config in
        let total = List.length ranked in
        Printf.printf "\n%s (%s): %d partitions ranked\n" file
          m.Machine.name total;
        let inline_at i = (List.nth ranked i).Advisor.inline in
        (* A spread across the predicted ranking: the winner, quartile /
           median / worst entries, plus the two structural anchors
           (fully materialized, fully fused). *)
        let cands =
          List.sort_uniq compare
            (List.map (List.sort compare)
               [ []; inline_at 0; inline_at (total / 4);
                 inline_at (total / 2); inline_at (total - 1);
                 P.inlinable p ])
        in
        let rows =
          List.map
            (fun inline ->
              let e, rank =
                match
                  List.find_index
                    (fun (e : Advisor.partition) ->
                      key e.Advisor.inline = key inline)
                    ranked
                with
                | Some i -> (List.nth ranked i, i)
                | None -> failwith "candidate missing from ranking"
              in
              let meas = measured_time m (P.fuse p ~inline) in
              Printf.printf
                "  #%4d  %2d stages  pred %8.4f ms  meas %8.4f ms  %s\n"
                (rank + 1) e.Advisor.stages
                (1e3 *. e.Advisor.time)
                (1e3 *. meas) (label inline);
              (inline, e, rank, meas))
            cands
        in
        let pairs = ref 0 and concordant = ref 0 in
        List.iteri
          (fun i (_, (ei : Advisor.partition), _, mi) ->
            List.iteri
              (fun j ((_, (ej : Advisor.partition), _, mj)) ->
                if j > i then begin
                  incr pairs;
                  if ei.Advisor.time < ej.Advisor.time = (mi < mj) then
                    incr concordant
                end)
              rows)
          rows;
        let find_meas k' =
          let _, _, _, m' =
            List.find (fun (i, _, _, _) -> key i = k') rows
          in
          m'
        in
        let best = List.hd ranked in
        let meas_best = find_meas (key best.Advisor.inline) in
        let meas_unfused = find_meas "" in
        Printf.printf
          "  ranking agreement %d/%d pairs; best vs fully-materialized: \
           %.2fx predicted, %.2fx measured\n"
          !concordant !pairs
          ((List.find
              (fun (i, _, _, _) -> key i = "")
              rows
           |> fun (_, e, _, _) -> e.Advisor.time)
          /. best.Advisor.time)
          (meas_unfused /. meas_best);
        (file, m, total, rows, !pairs, !concordant, meas_unfused, meas_best,
         best))
      machines
  in
  (* Host wall clock over the union of interesting partitions. *)
  let wall_cands =
    List.sort_uniq compare
      ([] :: List.map (List.sort compare) (P.inlinable p :: List.map
         (fun (_, _, _, _, _, _, _, _, (b : Advisor.partition)) ->
           b.Advisor.inline)
         per_machine))
  in
  let wall_rows = List.map (fun inline -> (inline, wall inline)) wall_cands in
  let _, (unfused_wall, ref_sums) =
    List.find (fun (i, _) -> i = []) wall_rows
  in
  let bit_identical =
    List.for_all (fun (_, (_, sums)) -> sums = ref_sums) wall_rows
  in
  Printf.printf
    "\n\
     host wall clock (plan backend, best of 3; the host interpreter is\n\
     compute-bound, so recomputation costs dominate here — the simulated\n\
     machine above is where the memory-traffic trade-off plays out):\n";
  List.iter
    (fun (inline, (s, _)) ->
      Printf.printf "  %8.4f ms  %5.2fx vs unfused  %s\n" (1e3 *. s)
        (unfused_wall /. s) (label inline))
    wall_rows;
  Printf.printf "outputs across partitions: %s\n"
    (if bit_identical then "bit-identical" else "DIFFER");
  let strs l = Json.List (List.map (fun x -> Json.String x) l) in
  let machine_json
      (file, m, total, rows, pairs, concordant, meas_unfused, meas_best,
       (best : Advisor.partition)) =
    let row_json (inline, (e : Advisor.partition), rank, meas) =
      Json.Obj
        [ ("inline", strs inline);
          ("stages", Int e.Advisor.stages);
          ("predicted_rank", Int (rank + 1));
          ("predicted_s", Float e.Advisor.time);
          ("measured_s", Float meas) ]
    in
    Json.Obj
      [ ("file", String file);
        ("machine", String m.Machine.name);
        ("partitions_ranked", Int total);
        ("candidates", List (List.map row_json rows));
        ( "ranking_agreement",
          Obj
            [ ("pairs", Int pairs);
              ("concordant", Int concordant);
              ( "fraction",
                Float (float_of_int concordant /. float_of_int (max 1 pairs))
              ) ] );
        ( "best",
          Obj
            [ ("inline", strs best.Advisor.inline);
              ("predicted_s", Float best.Advisor.time);
              ("measured_s", Float meas_best);
              ("measured_speedup_vs_unfused", Float (meas_unfused /. meas_best))
            ] ) ]
  in
  write_json "bench/BENCH_fusion.json"
    (Obj
       [ ("program", String "hdiff");
         ("dims", ints dims);
         ("scale_factor", Int 8);
         ("machines", List (List.map machine_json per_machine));
         ( "wall_clock",
           Obj
             [ ("backend", String "plan");
               ( "note",
                 String
                   "host interpreter is compute-bound: recomputation \
                    dominates wall clock; the memory-traffic trade-off is \
                    measured on the simulated machines above" );
               ("bit_identical", Bool bit_identical);
               ( "runs",
                 List
                   (List.map
                      (fun (inline, (s, _)) ->
                        Json.Obj
                          [ ("inline", strs inline);
                            ("seconds", Float s);
                            ("speedup_vs_unfused", Float (unfused_wall /. s)) ])
                      wall_rows) ) ] ) ])

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
            ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
            ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
            ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
            ("e19", e19); ("e20", e20); ("e21", e21) ]
