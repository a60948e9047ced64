(* Bechamel micro-benchmarks: one Test.make per experiment, timing the
   core computational kernel that the corresponding table/figure
   exercises (run with: dune exec bench/main.exe -- --micro). *)
open Yasksite
open Bechamel
open Toolkit
module Ustats = Yasksite_util.Stats

let clx = Exp.clx

(* Grids laid out as [config]'s fold says, as the sweep's YS405 gate
   requires. *)
let small_kernel spec dims config =
  let spec = Stencil.Suite.resolve_defaults spec in
  let info = Stencil.Analysis.of_spec spec in
  let halo = Stencil.Analysis.halo info in
  let layout = Grid.layout_of_fold config.Config.fold in
  let rng = Yasksite_util.Prng.create ~seed:7 in
  let input = Grid.create ~halo ~layout ~dims () in
  Grid.fill input ~f:(fun _ -> Yasksite_util.Prng.float rng);
  Grid.halo_dirichlet input 0.0;
  let output = Grid.create ~halo ~layout ~dims () in
  (spec, input, output)

let sweep_case name ?pool spec dims config =
  let spec, input, output = small_kernel spec dims config in
  ( name,
    fun () ->
      ignore
        (Engine.Sweep.run ?pool ~config spec ~inputs:[| input |] ~output
          : Engine.Sweep.stats) )

(* The cache simulator alone, the "measured" side of E3-E13: a fixed
   heat-3d-7pt ping-pong address stream, a sweep a -> b and one b -> a
   over a 16x32x32 grid with a one-point halo, 7 reads and 1 write per
   point. An entry is [addr lsl 1 lor is_write]. *)
let sim_name = "sim-heat3d-pingpong"
let sim_accesses = 2 * 16 * 32 * 32 * 8

let sim_stream () =
  let nz = 16 and ny = 32 and nx = 32 in
  let py = ny + 2 and px = nx + 2 in
  let grid_bytes = (nz + 2) * py * px * 8 in
  let addr base z y x = base + ((((z * py) + y) * px) + x) * 8 in
  let taps =
    [ (0, 0, 0); (0, 0, -1); (0, 0, 1); (0, -1, 0); (0, 1, 0); (-1, 0, 0);
      (1, 0, 0) ]
  in
  let stream = Array.make sim_accesses 0 and n = ref 0 in
  let push e =
    stream.(!n) <- e;
    incr n
  in
  List.iter
    (fun (src, dst) ->
      for z = 1 to nz do
        for y = 1 to ny do
          for x = 1 to nx do
            List.iter
              (fun (dz, dy, dx) ->
                push (addr src (z + dz) (y + dy) (x + dx) lsl 1))
              taps;
            push ((addr dst z y x lsl 1) lor 1)
          done
        done
      done)
    [ (0, grid_bytes); (grid_bytes, 0) ];
  stream

(* Each case is a named thunk: the same closure feeds bechamel's OLS
   estimator and the plain Welford summary below. Built when the
   micro-benchmarks run, so that the experiments do not pay for the
   cases' grids and stream. *)
let cases () =
  let heat3d = Stencil.Suite.heat_3d_7pt in
  let dims3 = [| 24; 24; 24 |] in
  [ (* e1: machine model construction *)
    ( "e1-machine-describe",
      fun () ->
        ignore (Machine.describe Machine.cascade_lake : Yasksite_util.Table.t)
    );
    (* e2: stencil analysis *)
    ( "e2-stencil-analysis",
      fun () ->
        ignore
          (Stencil.Analysis.of_spec Stencil.Suite.box_3d_27pt
            : Stencil.Analysis.t) );
    (* e3/e4: single-core model evaluation and a sweep *)
    (let info = Stencil.Analysis.of_spec heat3d in
     ( "e3-ecm-predict",
       fun () ->
         ignore
           (Model.predict clx info ~dims:[| 64; 64; 64 |]
              ~config:Config.default
             : Model.prediction) ));
    sweep_case "e4-naive-sweep" heat3d dims3 (Config.v ());
    (* e5: multicore scaling model *)
    (let info = Stencil.Analysis.of_spec heat3d in
     ( "e5-chip-scaling",
       fun () ->
         ignore
           (Model.chip_scaling clx info ~dims:[| 64; 64; 64 |]
              ~config:Config.default ~max_threads:20
             : (int * float) array) ));
    (* e6: blocked sweep *)
    sweep_case "e6-blocked-sweep" heat3d dims3 (Config.v ~block:[| 0; 8; 24 |] ());
    (* e7: folded layout sweep *)
    sweep_case "e7-folded-sweep" heat3d dims3 (Config.v ~fold:[| 1; 2; 4 |] ());
    (* e8: wavefront execution *)
    (let spec = Stencil.Suite.resolve_defaults heat3d in
     let halo = [| 1; 1; 1 |] in
     let a = Grid.create ~halo ~dims:dims3 () in
     let b = Grid.create ~halo ~dims:dims3 () in
     ( "e8-wavefront",
       fun () ->
         ignore
           (Engine.Wavefront.steps ~config:(Config.v ~wavefront:4 ()) spec ~a
              ~b ~steps:4
             : Grid.t * Engine.Sweep.stats) ));
    (* e9: analytic tuning pass *)
    (let info = Stencil.Analysis.of_spec heat3d in
     ( "e9-advisor-rank-all",
       fun () ->
         ignore
           (Advisor.rank_all clx info ~dims:[| 64; 64; 64 |] ~threads:8
             : (Config.t * Model.prediction) list) ));
    (* e21: ECM ranking of hdiff's 4096 fusion partitions at 256^2, with
       a fresh model cache per run, as each perfbench [rank] op has *)
    ( "e21-rank-partitions-hdiff",
      fun () ->
        ignore
          (Advisor.rank_partitions ~cache:(Model_cache.create ()) clx
             Stencil.Suite.hdiff ~dims:[| 256; 256 |] ~config:Config.default
            : Advisor.partition list) );
    (* e10: one ODE step of the fused RK4 variant *)
    (let pde = Ode.Pde.heat ~rank:2 ~n:48 ~alpha:1.0 in
     let variant = Offsite.Variant.fused Ode.Tableau.rk4 pde ~h:1e-5 in
     let ex = Offsite.Executor.create pde variant in
     ("e10-rk4-fused-step", fun () -> Offsite.Executor.step ex));
    (* e15: the blocked sweep again, split over the shared domain pool *)
    sweep_case "e15-parallel-sweep" ~pool:(Pool.shared ()) heat3d dims3
      (Config.v ~block:[| 0; 8; 24 |] ());
    (* sim: the stream through clx/8's hierarchy, which stays warm
       across runs as it does across a measurement's sweeps *)
    (let stream = sim_stream () and h = Cachesim.create clx in
     ( sim_name,
       fun () ->
         for i = 0 to Array.length stream - 1 do
           let e = stream.(i) in
           if e land 1 = 0 then Cachesim.read h ~addr:(e lsr 1)
           else Cachesim.write h ~addr:(e lsr 1)
         done )) ]

(* One-pass Welford summary over raw wall-clock runs: cheaper than a
   two-pass mean-then-variance scan and it never stores the samples. *)
let welford_summary cases =
  let runs = 50 in
  Printf.printf "\nwall-clock summary (Welford over %d runs):\n" runs;
  List.iter
    (fun (name, fn) ->
      for _ = 1 to 3 do fn () done;
      let w = Ustats.welford_create () in
      for _ = 1 to runs do
        let (), s = Exp.time fn in
        Ustats.welford_add w (s *. 1e9)
      done;
      Printf.printf "%-24s %12.1f ns/run  (stddev %.1f)\n" name
        (Ustats.welford_mean w) (Ustats.welford_stddev w);
      if name = sim_name then
        Printf.printf "%-24s %12.1f ns/access (%d accesses per run)\n" ""
          (Ustats.welford_mean w /. float_of_int sim_accesses)
          sim_accesses)
    cases

let run () =
  let cases = cases () in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) cases
  in
  let benchmark test =
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ())
      Instance.[ minor_allocated; major_allocated; monotonic_clock ]
      test
  in
  let results =
    List.map
      (fun test ->
        let results = benchmark test in
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results)
      tests
  in
  List.iter2
    (fun test result ->
      Hashtbl.iter
        (fun _ ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-24s %12.1f ns/run\n"
                (Test.Elt.name (List.hd (Test.elements test)))
                est
          | _ -> ())
        result)
    tests results;
  welford_summary cases
