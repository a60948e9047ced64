module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Hierarchy = Yasksite_cachesim.Hierarchy
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Suite = Yasksite_stencil.Suite
module Lower = Yasksite_stencil.Lower
module Gen = Yasksite_stencil.Gen
module Config = Yasksite_ecm.Config
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Measure = Yasksite_engine.Measure
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let make_grid ?(layout = Grid.Linear) ~halo ~dims rng =
  let g = Grid.create ~halo ~layout ~dims () in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.25;
  g

(* Run [spec] under two configurations (and layouts) and compare. *)
let schedules_agree ~seed ~variant =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:12) in
  let src_rng = Prng.create ~seed:(seed + 1000) in
  let a1 = make_grid ~halo ~dims src_rng in
  let src_rng = Prng.create ~seed:(seed + 1000) in
  let layout2 =
    match variant with
    | `Fold ->
        let f = Array.make rank 1 in
        f.(rank - 1) <- 2;
        if rank > 1 then f.(rank - 2) <- 2;
        Grid.Folded f
    | _ -> Grid.Linear
  in
  let a2 = make_grid ~layout:layout2 ~halo ~dims src_rng in
  let o1 = Grid.create ~halo ~dims () in
  let o2 = Grid.create ~halo ~layout:layout2 ~dims () in
  let cfg2 =
    match variant with
    | `Block ->
        let b = Array.map (fun d -> 1 + Prng.int rng ~bound:d) dims in
        b.(0) <- 0;
        Config.v ~block:b ()
    | `Fold ->
        let f = match layout2 with Grid.Folded f -> f | _ -> assert false in
        Config.v ~fold:f ()
    | `Trace -> Config.default
  in
  let trace =
    match variant with
    | `Trace -> Some (Hierarchy.create Machine.test_chip)
    | _ -> None
  in
  let _ = Sweep.run spec ~inputs:[| a1 |] ~output:o1 in
  let _ = Sweep.run ?trace ~config:cfg2 spec ~inputs:[| a2 |] ~output:o2 in
  Grid.max_abs_diff o1 o2 = 0.0

let blocked_equals_naive =
  QCheck.Test.make ~name:"blocked schedule bit-reproduces naive" ~count:60
    QCheck.small_int (fun seed -> schedules_agree ~seed ~variant:`Block)

let folded_equals_naive =
  QCheck.Test.make ~name:"folded layout bit-reproduces naive" ~count:60
    QCheck.small_int (fun seed -> schedules_agree ~seed ~variant:`Fold)

let traced_equals_naive =
  QCheck.Test.make ~name:"tracing does not change results" ~count:30
    QCheck.small_int (fun seed -> schedules_agree ~seed ~variant:`Trace)

let wavefront_equals_sweeps =
  QCheck.Test.make ~name:"wavefront bit-reproduces repeated sweeps" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 2 + Prng.int rng ~bound:2 in
      let spec = Gen.spec rng ~rank in
      let info = Analysis.of_spec spec in
      let halo = Analysis.halo info in
      let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
      let steps = 1 + Prng.int rng ~bound:6 in
      let wf = 2 + Prng.int rng ~bound:3 in
      let mk seed = make_grid ~halo ~dims (Prng.create ~seed) in
      let a1 = mk (seed + 1) and b1 = mk (seed + 2) in
      let a2 = mk (seed + 1) and b2 = mk (seed + 2) in
      let f1, _ = Wavefront.steps spec ~a:a1 ~b:b1 ~steps in
      let f2, _ =
        Wavefront.steps ~config:(Config.v ~wavefront:wf ()) spec ~a:a2 ~b:b2
          ~steps
      in
      Grid.max_abs_diff f1 f2 = 0.0)

let test_wavefront_depth1_is_sweep () =
  let rng = Prng.create ~seed:5 in
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let halo = [| 1; 1 |] and dims = [| 9; 11 |] in
  let a = make_grid ~halo ~dims rng in
  let b = Grid.create ~halo ~dims () in
  Grid.halo_dirichlet b 0.25;
  let reference = Grid.create ~halo ~dims () in
  let _ = Sweep.run spec ~inputs:[| a |] ~output:reference in
  let final, _ = Wavefront.steps spec ~a ~b ~steps:1 in
  Alcotest.(check (float 0.0)) "one step equals one sweep" 0.0
    (Grid.max_abs_diff final reference)

let test_sweep_stats () =
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  let halo = [| 1; 1; 1 |] and dims = [| 8; 8; 8 |] in
  let rng = Prng.create ~seed:3 in
  let a = make_grid ~halo ~dims rng in
  let o = Grid.create ~halo ~dims () in
  let s = Sweep.run ~vec_unit:[| 1; 1; 8 |] spec ~inputs:[| a |] ~output:o in
  Alcotest.(check int) "points" 512 s.Sweep.points;
  Alcotest.(check int) "vec units" 64 s.Sweep.vec_units;
  Alcotest.(check int) "rows" 64 s.Sweep.rows;
  Alcotest.(check int) "blocks" 1 s.Sweep.blocks;
  let s2 =
    Sweep.run ~config:(Config.v ~block:[| 0; 4; 4 |] ()) ~vec_unit:[| 1; 1; 8 |]
      spec ~inputs:[| a |] ~output:o
  in
  Alcotest.(check int) "same points blocked" 512 s2.Sweep.points;
  Alcotest.(check int) "four blocks" 4 s2.Sweep.blocks;
  Alcotest.(check bool) "remainder-padded vec units" true
    (s2.Sweep.vec_units > 64)

let test_run_region_bounds () =
  let spec = Suite.resolve_defaults Suite.heat_1d_3pt in
  let g = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  (* Precondition violations now surface as lint gate diagnostics
     (YS406/YS409), not bare Invalid_argument. *)
  Alcotest.(check bool) "oob rejected" true
    (try
       ignore
         (Sweep.run_region spec ~inputs:[| g |] ~output:o ~lo:[| 0 |]
            ~hi:[| 9 |]);
       false
     with Yasksite_lint.Lint.Gate_error msg ->
       Astring_contains.contains msg "YS406");
  Alcotest.(check bool) "rank mismatch rejected" true
    (try
       ignore
         (Sweep.run_region spec ~inputs:[| g |] ~output:o ~lo:[| 0; 0 |]
            ~hi:[| 8; 8 |]);
       false
     with Yasksite_lint.Lint.Gate_error msg ->
       Astring_contains.contains msg "YS409")

let test_measure_sanity () =
  let m = Machine.test_chip in
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let meas = Measure.stencil_sweep m spec ~dims:[| 64; 64 |] ~config:Config.default in
  Alcotest.(check bool) "positive cycles" true (meas.Measure.cycles_per_cl > 0.0);
  Alcotest.(check bool) "positive perf" true (meas.Measure.lups_core > 0.0);
  Alcotest.(check bool) "some memory traffic" true
    (meas.Measure.mem_bytes_per_lup > 0.0);
  Alcotest.(check int) "boundaries" 3 (Array.length meas.Measure.t_data)

let test_measure_prediction_agreement () =
  (* The headline claim at unit-test scale: prediction within 20% of the
     measurement for the naive heat3d sweep on scaled Cascade Lake. *)
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  let dims = [| 48; 48; 48 |] in
  let info = Analysis.of_spec spec in
  let p = Yasksite_ecm.Model.predict m info ~dims ~config:Config.default in
  let meas = Measure.stencil_sweep m spec ~dims ~config:Config.default in
  let err =
    Yasksite_util.Stats.abs_rel_error ~predicted:p.Yasksite_ecm.Model.t_ecm
      ~measured:meas.Measure.cycles_per_cl
  in
  Alcotest.(check bool)
    (Printf.sprintf "prediction error %.1f%% within 20%%" (100.0 *. err))
    true (err < 0.20)

let test_measure_threads () =
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  let dims = [| 48; 48; 48 |] in
  let l1 = Measure.lups_at_threads m spec ~dims ~config:Config.default ~threads:1 in
  let l8 = Measure.lups_at_threads m spec ~dims ~config:Config.default ~threads:8 in
  Alcotest.(check bool) "more threads faster" true (l8 > l1);
  Alcotest.(check bool) "sublinear beyond saturation" true (l8 < 8.5 *. l1)

let base_suite =
  [ qt blocked_equals_naive;
    qt folded_equals_naive;
    qt traced_equals_naive;
    qt wavefront_equals_sweeps;
    Alcotest.test_case "wavefront depth 1" `Quick test_wavefront_depth1_is_sweep;
    Alcotest.test_case "sweep stats" `Quick test_sweep_stats;
    Alcotest.test_case "run_region bounds" `Quick test_run_region_bounds;
    Alcotest.test_case "measure sanity" `Quick test_measure_sanity;
    Alcotest.test_case "measure vs prediction" `Slow
      test_measure_prediction_agreement;
    Alcotest.test_case "measure threads" `Slow test_measure_threads ]

let test_measure_folded_config () =
  let m = Machine.test_chip in
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let config = Config.v ~fold:[| 1; 4 |] () in
  let meas = Measure.stencil_sweep m spec ~dims:[| 48; 48 |] ~config in
  Alcotest.(check bool) "folded measurement runs" true
    (meas.Measure.cycles_per_cl > 0.0 && Float.is_finite meas.Measure.lups_core)

let test_measure_rome_victim_path () =
  let m = Machine.scaled ~factor:8 Machine.rome in
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  (* 64^3 grids (2 MiB each) exceed the scaled Rome L3 share. *)
  let meas =
    Measure.stencil_sweep m spec ~dims:[| 64; 64; 64 |] ~config:Config.default
  in
  Alcotest.(check bool) "victim hierarchy measured" true
    (meas.Measure.lups_core > 0.0);
  (* Steady state on a > L3 working set must show memory traffic. *)
  Alcotest.(check bool) "memory traffic present" true
    (meas.Measure.mem_bytes_per_lup > 8.0)

let test_multifield_sweep () =
  let spec = Suite.resolve_defaults Suite.varcoef_3d_7pt in
  let rng = Prng.create ~seed:11 in
  let halo = [| 1; 1; 1 |] and dims = [| 6; 6; 6 |] in
  let u = make_grid ~halo ~dims rng in
  let k = make_grid ~halo ~dims rng in
  let out = Grid.create ~halo ~dims () in
  let stats = Sweep.run spec ~inputs:[| u; k |] ~output:out in
  Alcotest.(check int) "points" 216 stats.Sweep.points;
  (* Reference: u + r*k*(sum neigh - 6u), r = 0.1 *)
  let v i = Grid.get u i and kv i = Grid.get k i in
  let idx = [| 3; 2; 4 |] in
  let neigh =
    v [| 2; 2; 4 |] +. v [| 4; 2; 4 |] +. v [| 3; 1; 4 |] +. v [| 3; 3; 4 |]
    +. v [| 3; 2; 3 |] +. v [| 3; 2; 5 |]
  in
  let expect = v idx +. (0.1 *. kv idx *. (neigh -. (6.0 *. v idx))) in
  Alcotest.(check (float 1e-12)) "varcoef value" expect (Grid.get out idx)

let test_region_stats () =
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let rng = Prng.create ~seed:12 in
  let halo = [| 1; 1 |] and dims = [| 10; 10 |] in
  let a = make_grid ~halo ~dims rng in
  let o = Grid.create ~halo ~dims () in
  let s =
    Sweep.run_region spec ~inputs:[| a |] ~output:o ~lo:[| 2; 3 |]
      ~hi:[| 7; 9 |]
  in
  Alcotest.(check int) "region points" 30 s.Sweep.points

let test_run_region_foreign_bound () =
  (* A bound's tables address the grids it was bound to, so a bound
     passed with any other grids is refused rather than swept. The grids
     share one shape: without the check, the sweep would write the
     bound's output and leave [~output] untouched, corrupting nothing. *)
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  let rng = Prng.create ~seed:13 in
  let halo = [| 1; 1 |] and dims = [| 6; 6 |] in
  let a = make_grid ~halo ~dims rng in
  let b = make_grid ~halo ~dims rng in
  let o1 = Grid.create ~halo ~dims () and o2 = Grid.create ~halo ~dims () in
  let bound = Lower.bind (Lower.lower spec) ~inputs:[| a |] ~output:o1 in
  let refused ~inputs ~output =
    match
      Sweep.run_region ~bound spec ~inputs ~output ~lo:[| 0; 0 |] ~hi:dims
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "other output refused" true
    (refused ~inputs:[| a |] ~output:o2);
  Alcotest.(check bool) "other input refused" true
    (refused ~inputs:[| b |] ~output:o1);
  Alcotest.(check bool) "own grids swept" false
    (refused ~inputs:[| a |] ~output:o1)




let test_streaming_store_sweep () =
  (* Results are unchanged; measured traffic drops by the write-allocate
     share for a memory-bound stencil. *)
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  (* Memory-bound working set: streaming stores only pay off when the
     output would otherwise stream write-allocate traffic. *)
  let dims = [| 64; 64; 64 |] in
  let rng = Prng.create ~seed:21 in
  let halo = [| 1; 1; 1 |] in
  let a = make_grid ~halo ~dims rng in
  let o1 = Grid.create ~halo ~dims () in
  let o2 = Grid.create ~halo ~dims () in
  let _ = Sweep.run spec ~inputs:[| a |] ~output:o1 in
  let trace = Hierarchy.create m in
  let _ =
    Sweep.run ~trace ~config:(Config.v ~streaming_stores:true ()) spec
      ~inputs:[| a |] ~output:o2
  in
  Alcotest.(check (float 0.0)) "identical results" 0.0 (Grid.max_abs_diff o1 o2);
  let meas_nt =
    Measure.stencil_sweep m spec ~dims
      ~config:(Config.v ~streaming_stores:true ())
  in
  let meas = Measure.stencil_sweep m spec ~dims ~config:Config.default in
  Alcotest.(check bool)
    (Printf.sprintf "nt reduces memory traffic (%.1f < %.1f)"
       meas_nt.Measure.mem_bytes_per_lup meas.Measure.mem_bytes_per_lup)
    true
    (meas_nt.Measure.mem_bytes_per_lup < meas.Measure.mem_bytes_per_lup -. 4.0)

let extra_suite =
  [ Alcotest.test_case "measure folded config" `Quick test_measure_folded_config;
    Alcotest.test_case "measure rome victim" `Quick test_measure_rome_victim_path;
    Alcotest.test_case "multifield sweep" `Quick test_multifield_sweep;
    Alcotest.test_case "region stats" `Quick test_region_stats;
    Alcotest.test_case "run_region refuses a foreign bound" `Quick
      test_run_region_foreign_bound;
    Alcotest.test_case "streaming store sweep" `Quick
      test_streaming_store_sweep ]



let test_load_imbalance () =
  (* 64 planes over 7 threads: the slowest core gets 10 of 64, so chip
     throughput loses the remainder; an even split does not. *)
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let spec = Suite.resolve_defaults Suite.heat_3d_7pt in
  let dims = [| 64; 64; 64 |] in
  let l7 = Measure.lups_at_threads m spec ~dims ~config:Config.default ~threads:7 in
  let l8 = Measure.lups_at_threads m spec ~dims ~config:Config.default ~threads:8 in
  Alcotest.(check bool)
    (Printf.sprintf "uneven split costs throughput (%.2f < %.2f GLUP/s)"
       (l7 /. 1e9) (l8 /. 1e9))
    true (l7 < l8)

let suite =
  base_suite @ extra_suite
  @ [ Alcotest.test_case "load imbalance" `Quick test_load_imbalance ]
