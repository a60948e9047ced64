open Yasksite_ecm
module Machine = Yasksite_arch.Machine
module Analysis = Yasksite_stencil.Analysis
module Suite = Yasksite_stencil.Suite

let heat3d = Analysis.of_spec Suite.heat_3d_7pt

let clx = Machine.cascade_lake

let no_fold = [| 1; 1; 1 |]

let test_config () =
  let c = Config.v ~block:[| 0; 16; 64 |] ~fold:[| 1; 2; 4 |] ~wavefront:4 () in
  Alcotest.(check (array int)) "block clamped" [| 128; 16; 64 |]
    (Config.block_extents c ~dims:[| 128; 128; 128 |]);
  Alcotest.(check (array int)) "block oversize" [| 128; 16; 32 |]
    (Config.block_extents c ~dims:[| 128; 128; 32 |]);
  Alcotest.(check (array int)) "fold" [| 1; 2; 4 |]
    (Config.fold_extents c ~rank:3);
  Alcotest.(check (array int)) "linear fold" [| 1; 1; 1 |]
    (Config.fold_extents Config.default ~rank:3);
  Alcotest.check_raises "bad wavefront"
    (Invalid_argument "Config.v: wavefront must be >= 1") (fun () ->
      ignore (Config.v ~wavefront:0 ()))

let test_incore_heat3d () =
  let i = Incore.analyze clx heat3d ~fold:no_fold in
  Alcotest.(check int) "lups/CL" 8 (Incore.lups_per_cl clx);
  Alcotest.(check int) "fma" 2 i.Incore.fma;
  Alcotest.(check int) "adds" 4 i.Incore.adds;
  Alcotest.(check int) "muls" 0 i.Incore.muls;
  (* 7 aligned loads on 2 ports; 1 store on 1 port; one AVX-512 vector
     per cache line. *)
  Alcotest.(check (float 1e-9)) "t_nol" 3.5 i.Incore.t_nol;
  (* max(fma-port (2+0)/2, add-port 4/2) = 2 *)
  Alcotest.(check (float 1e-9)) "t_ol" 2.0 i.Incore.t_ol;
  Alcotest.(check (float 1e-9)) "no shuffles" 0.0 i.Incore.shuffles

let test_incore_fold_penalty () =
  let aligned = Incore.analyze clx heat3d ~fold:no_fold in
  let folded = Incore.analyze clx heat3d ~fold:[| 1; 2; 4 |] in
  Alcotest.(check bool) "folded needs more loads" true
    (folded.Incore.vector_loads > aligned.Incore.vector_loads);
  Alcotest.(check bool) "folded has shuffles" true
    (folded.Incore.shuffles > 0.0)

let test_lc_conditions_clx () =
  let dims = [| 128; 128; 128 |] in
  let bs = Lc.boundaries clx heat3d ~dims ~config:Config.default in
  Alcotest.(check int) "three boundaries" 3 (Array.length bs);
  (* L1 (32 KiB): plane set too big, rows (3*3*128*8 = 9 KiB) fit. *)
  Alcotest.(check bool) "L1 row reuse" true (bs.(0).Lc.condition = Lc.Row_reuse);
  Alcotest.(check (float 1e-9)) "L1 lines" 5.0 bs.(0).Lc.lines_per_cl;
  (* L2 (1 MiB): 3 planes of 128x128 (393 KiB) fit the 512 KiB budget. *)
  Alcotest.(check bool) "L2 outer reuse" true
    (bs.(1).Lc.condition = Lc.Outer_reuse);
  Alcotest.(check (float 1e-9)) "L2 lines" 3.0 bs.(1).Lc.lines_per_cl;
  (* Memory: optimal traffic, 24 B/LUP. *)
  Alcotest.(check (float 1e-9)) "mem B/LUP" 24.0 bs.(2).Lc.bytes_per_lup

let test_lc_all_fits () =
  let dims = [| 24; 24; 24 |] in
  let bs = Lc.boundaries clx heat3d ~dims ~config:Config.default in
  Alcotest.(check bool) "fits in L3" true (bs.(2).Lc.condition = Lc.All_fits);
  Alcotest.(check (float 1e-9)) "no mem traffic" 0.0 bs.(2).Lc.bytes_per_lup

let test_lc_blocking_restores_reuse () =
  let dims = [| 512; 512; 512 |] in
  let unblocked = Lc.boundaries clx heat3d ~dims ~config:Config.default in
  (* 3 planes of 512x512 = 6 MiB: breaks the L2 layer condition. *)
  Alcotest.(check bool) "L2 broken unblocked" true
    (unblocked.(1).Lc.condition <> Lc.Outer_reuse);
  let blocked =
    Lc.boundaries clx heat3d ~dims
      ~config:(Config.v ~block:[| 0; 64; 128 |] ())
  in
  Alcotest.(check bool) "L2 restored by blocking" true
    (blocked.(1).Lc.condition = Lc.Outer_reuse);
  Alcotest.(check bool) "less traffic" true
    (blocked.(1).Lc.lines_per_cl < unblocked.(1).Lc.lines_per_cl)

let test_lc_threads_shrink () =
  let dims = [| 400; 400; 400 |] in
  let at n =
    (Lc.mem_bytes_per_lup clx heat3d ~dims
       ~config:(Config.v ~threads:n ()) [@warning "-3"])
  in
  Alcotest.(check bool) "more threads, no less traffic" true (at 20 >= at 1)

let test_wavefront_traffic () =
  let dims = [| 128; 128; 128 |] in
  let base = Lc.mem_bytes_per_lup clx heat3d ~dims ~config:Config.default in
  let wf4 =
    Lc.mem_bytes_per_lup clx heat3d ~dims ~config:(Config.v ~wavefront:4 ())
  in
  Alcotest.(check (float 1e-9)) "quarter traffic" (base /. 4.0) wf4;
  (* A wavefront too deep for the cache brings no reduction. *)
  let huge = [| 64; 2048; 2048 |] in
  Alcotest.(check bool) "oversized wavefront invalid" false
    (Lc.wavefront_fits clx heat3d ~dims:huge ~config:(Config.v ~wavefront:8 ()));
  let wf_huge =
    Lc.mem_bytes_per_lup clx heat3d ~dims:huge ~config:(Config.v ~wavefront:8 ())
  and base_huge =
    Lc.mem_bytes_per_lup clx heat3d ~dims:huge ~config:Config.default
  in
  Alcotest.(check (float 1e-9)) "no reduction" base_huge wf_huge

let test_model_composition_serial () =
  let dims = [| 128; 128; 128 |] in
  let p = Model.predict clx heat3d ~dims ~config:Config.default in
  let expected =
    max p.Model.incore.Incore.t_ol
      (p.Model.incore.Incore.t_nol +. Array.fold_left ( +. ) 0.0 p.Model.t_data)
  in
  Alcotest.(check (float 1e-9)) "serial composition" expected p.Model.t_ecm;
  Alcotest.(check bool) "positive perf" true (p.Model.lups_single > 0.0)

let test_model_composition_overlap () =
  let rome = Machine.rome in
  let dims = [| 128; 128; 128 |] in
  let p = Model.predict rome heat3d ~dims ~config:Config.default in
  let expected =
    Array.fold_left max
      (max p.Model.incore.Incore.t_ol p.Model.incore.Incore.t_nol)
      p.Model.t_data
  in
  Alcotest.(check (float 1e-9)) "overlapping composition" expected p.Model.t_ecm

let test_model_saturation () =
  let dims = [| 160; 160; 160 |] in
  let p = Model.predict clx heat3d ~dims ~config:Config.default in
  Alcotest.(check bool) "saturates within chip" true
    (p.Model.saturation_cores >= 1 && p.Model.saturation_cores <= clx.Machine.cores);
  let scaling =
    Model.chip_scaling clx heat3d ~dims ~config:Config.default ~max_threads:20
  in
  let _, p1 = scaling.(0) in
  Alcotest.(check (float 1.0)) "n=1 equals single" p.Model.lups_single p1;
  Array.iter
    (fun (n, lups) ->
      Alcotest.(check bool)
        (Printf.sprintf "bounded by saturation at %d" n)
        true
        (lups <= p.Model.lups_saturated +. 1.0))
    scaling

let test_model_in_cache_no_saturation () =
  let dims = [| 24; 24; 24 |] in
  let p = Model.predict clx heat3d ~dims ~config:Config.default in
  Alcotest.(check bool) "no memory ceiling" true
    (p.Model.lups_saturated = infinity);
  Alcotest.(check int) "saturation = all cores" clx.Machine.cores
    p.Model.saturation_cores

let test_wavefront_lane_waste () =
  let dims = [| 128; 128; 128 |] in
  let cfg_bad = Config.v ~fold:[| 8; 1; 1 |] ~wavefront:4 () in
  let cfg_good = Config.v ~fold:[| 1; 1; 8 |] ~wavefront:4 () in
  let pb = Model.predict clx heat3d ~dims ~config:cfg_bad in
  let pg = Model.predict clx heat3d ~dims ~config:cfg_good in
  Alcotest.(check bool) "z-fold wastes lanes under wavefront" true
    (pb.Model.incore.Incore.t_ol > pg.Model.incore.Incore.t_ol)

let test_advisor () =
  let dims = [| 128; 128; 128 |] in
  let space = Advisor.space clx ~dims ~threads:4 ~rank:3 in
  Alcotest.(check bool) "space non-trivial" true (List.length space > 50);
  List.iter
    (fun c ->
      match c.Config.fold with
      | Some f ->
          Alcotest.(check int) "folds match SIMD width" clx.Machine.simd.Machine.dp_lanes
            (Array.fold_left ( * ) 1 f)
      | None -> ())
    space;
  let best_cfg, best_p = Advisor.best clx heat3d ~dims ~threads:4 in
  let default_p =
    Model.predict clx heat3d ~dims ~config:(Config.v ~threads:4 ())
  in
  Alcotest.(check bool) "best at least default" true
    (best_p.Model.lups_chip >= default_p.Model.lups_chip);
  Alcotest.(check int) "thread count preserved" 4 best_cfg.Config.threads;
  let ranked = Advisor.rank_all clx heat3d ~dims ~threads:4 in
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        a.Model.lups_chip >= b.Model.lups_chip && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked descending" true (sorted ranked)

let test_summary_string () =
  let p = Model.predict clx heat3d ~dims:[| 64; 64; 64 |] ~config:Config.default in
  Alcotest.(check bool) "summary mentions ECM" true
    (Astring_contains.contains (Model.summary p) "ECM")

let base_suite =
  [ Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "incore heat3d" `Quick test_incore_heat3d;
    Alcotest.test_case "incore fold penalty" `Quick test_incore_fold_penalty;
    Alcotest.test_case "lc conditions clx" `Quick test_lc_conditions_clx;
    Alcotest.test_case "lc all fits" `Quick test_lc_all_fits;
    Alcotest.test_case "lc blocking restores reuse" `Quick
      test_lc_blocking_restores_reuse;
    Alcotest.test_case "lc thread sharing" `Quick test_lc_threads_shrink;
    Alcotest.test_case "wavefront traffic" `Quick test_wavefront_traffic;
    Alcotest.test_case "model serial composition" `Quick
      test_model_composition_serial;
    Alcotest.test_case "model overlap composition" `Quick
      test_model_composition_overlap;
    Alcotest.test_case "model saturation" `Quick test_model_saturation;
    Alcotest.test_case "model in-cache" `Quick test_model_in_cache_no_saturation;
    Alcotest.test_case "wavefront lane waste" `Quick test_wavefront_lane_waste;
    Alcotest.test_case "advisor" `Quick test_advisor;
    Alcotest.test_case "summary" `Quick test_summary_string ]

let test_roofline () =
  let module Roofline = Yasksite_ecm.Roofline in
  let a = heat3d in
  let p = Roofline.predict clx a ~threads:1 in
  (* heat3d: 8 flops / 24 B = 1/3 FLOP/B; single core memory-bound:
     5.6 B/cy * 2.5 GHz / 24 B/LUP = 583 MLUP/s. *)
  Alcotest.(check (float 1e6)) "single-core roofline" 583.3e6 p.Roofline.lups_single;
  let chip = Roofline.predict clx a ~threads:20 in
  (* Chip-level: 105 GB/s / 24 B = 4.375 GLUP/s (memory-bound). *)
  Alcotest.(check (float 1e7)) "chip roofline" 4.375e9 chip.Roofline.lups_chip;
  Alcotest.(check bool) "memory bound" true
    (chip.Roofline.memory_bound < chip.Roofline.flops_bound);
  (* Zero-flop kernels are treated as bandwidth streams. *)
  let copy = Analysis.of_spec Suite.copy_1d in
  let pc = Roofline.predict clx copy ~threads:1 in
  Alcotest.(check bool) "copy finite" true (Float.is_finite pc.Roofline.lups_single);
  Alcotest.check_raises "threads" (Invalid_argument "Roofline.predict: threads must be >= 1")
    (fun () -> ignore (Roofline.predict clx a ~threads:0))

let test_block_fold_alignment () =
  let c = Config.v ~block:[| 0; 5; 9 |] ~fold:[| 1; 2; 4 |] () in
  (* Blocks round up to fold multiples. *)
  Alcotest.(check (array int)) "aligned" [| 128; 6; 12 |]
    (Config.block_extents c ~dims:[| 128; 128; 128 |])




let test_streaming_store_traffic () =
  let dims = [| 128; 128; 128 |] in
  let nt = Config.v ~streaming_stores:true () in
  let bs = Lc.boundaries clx heat3d ~dims ~config:nt in
  (* Memory: 1 read stream + 1 streamed store = 16 B/LUP (vs 24). *)
  Alcotest.(check (float 1e-9)) "mem B/LUP with nt" 16.0
    bs.(2).Lc.bytes_per_lup;
  (* Inner boundaries carry no store lines at all. *)
  Alcotest.(check (float 1e-9)) "L2 lines nt" 1.0 bs.(1).Lc.lines_per_cl;
  let p_nt = Model.predict clx heat3d ~dims ~config:nt in
  let p = Model.predict clx heat3d ~dims ~config:Config.default in
  Alcotest.(check bool) "nt faster when memory bound" true
    (p_nt.Model.lups_single > p.Model.lups_single);
  (* Streaming stores defeat the wavefront's store-side reuse. *)
  let wf_nt = Config.v ~wavefront:4 ~streaming_stores:true () in
  let wf = Config.v ~wavefront:4 () in
  Alcotest.(check bool) "wavefront prefers cached stores" true
    (Lc.mem_bytes_per_lup clx heat3d ~dims ~config:wf
    < Lc.mem_bytes_per_lup clx heat3d ~dims ~config:wf_nt)

let test_advisor_nt_axis () =
  let space = Advisor.space clx ~dims:[| 64; 64; 64 |] ~threads:1 ~rank:3 in
  Alcotest.(check bool) "nt configs present" true
    (List.exists (fun c -> c.Config.streaming_stores) space);
  List.iter
    (fun c ->
      if c.Config.streaming_stores then
        Alcotest.(check int) "nt only without wavefront" 1 c.Config.wavefront)
    space

let extra_suite =
  [ Alcotest.test_case "roofline baseline" `Quick test_roofline;
    Alcotest.test_case "block/fold alignment" `Quick test_block_fold_alignment;
    Alcotest.test_case "streaming stores model" `Quick
      test_streaming_store_traffic;
    Alcotest.test_case "advisor nt axis" `Quick test_advisor_nt_axis ]

let test_lc_2d_conditions () =
  let heat2d = Analysis.of_spec Suite.heat_2d_5pt in
  (* Full CLX, 4096-wide rows: 3 rows x 4096 x 8 B = 96 KiB breaks L1
     (16 KiB budget) but fits L2 (512 KiB budget). *)
  let dims = [| 4096; 4096 |] in
  let bs = Lc.boundaries clx heat2d ~dims ~config:Config.default in
  Alcotest.(check bool) "L1 broken" true (bs.(0).Lc.condition = Lc.No_reuse);
  (* Broken 2D: distinct dy groups {-1,0,1} = 3 lines + 2 store lines. *)
  Alcotest.(check (float 1e-9)) "L1 lines" 5.0 bs.(0).Lc.lines_per_cl;
  Alcotest.(check bool) "L2 holds" true (bs.(1).Lc.condition = Lc.Outer_reuse);
  (* Blocking x restores the L1 condition. *)
  let blocked =
    Lc.boundaries clx heat2d ~dims ~config:(Config.v ~block:[| 0; 256 |] ())
  in
  Alcotest.(check bool) "L1 restored" true
    (blocked.(0).Lc.condition = Lc.Outer_reuse)

let test_lc_varcoef_fields () =
  let vc = Analysis.of_spec Suite.varcoef_3d_7pt in
  let dims = [| 128; 128; 128 |] in
  let bs = Lc.boundaries clx vc ~dims ~config:Config.default in
  (* Memory: two read streams + WA/WB = 4 lines = 32 B/LUP. *)
  Alcotest.(check (float 1e-9)) "mem B/LUP" 32.0 bs.(2).Lc.bytes_per_lup

let test_incore_div_cost () =
  let spec =
    Yasksite_stencil.Spec.v ~name:"div" ~rank:1
      (Yasksite_stencil.Expr.Div
         ( Yasksite_stencil.Expr.Ref { field = 0; offsets = [| 0 |] },
           Yasksite_stencil.Expr.Const 3.0 ))
  in
  let a = Analysis.of_spec spec in
  let i = Incore.analyze clx a ~fold:[| 1 |] in
  Alcotest.(check bool) "division is expensive" true (i.Incore.t_ol >= 8.0)

let test_explain_contents () =
  let p = Model.predict clx heat3d ~dims:[| 128; 128; 128 |] ~config:Config.default in
  let s = Model.explain clx heat3d p in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("mentions " ^ frag) true
        (Astring_contains.contains s frag))
    [ "in-core"; "layer condition"; "composition"; "saturating"; "L3" ]

let test_roofline_vs_ecm_ordering () =
  (* Roofline ignores the cache hierarchy, so for a serial-composition
     machine it must be an upper bound on the ECM prediction. *)
  let module Roofline = Yasksite_ecm.Roofline in
  List.iter
    (fun spec ->
      let a = Analysis.of_spec (Suite.resolve_defaults spec) in
      (* Working sets well beyond L3, where Roofline's streaming
         assumption applies. *)
      let dims =
        match a.Analysis.spec.Yasksite_stencil.Spec.rank with
        | 1 -> [| 1 lsl 23 |]
        | 2 -> [| 2048; 2048 |]
        | _ -> [| 192; 192; 192 |]
      in
      let ecm = Model.predict clx a ~dims ~config:Config.default in
      let rl = Roofline.predict clx a ~threads:1 in
      Alcotest.(check bool)
        (a.Analysis.spec.Yasksite_stencil.Spec.name ^ ": roofline >= ecm")
        true
        (rl.Roofline.lups_single >= ecm.Model.lups_single *. 0.999))
    Suite.eval_suite

let more_suite =
  [ Alcotest.test_case "lc 2d conditions" `Quick test_lc_2d_conditions;
    Alcotest.test_case "lc varcoef fields" `Quick test_lc_varcoef_fields;
    Alcotest.test_case "incore div cost" `Quick test_incore_div_cost;
    Alcotest.test_case "explain contents" `Quick test_explain_contents;
    Alcotest.test_case "roofline upper bound" `Quick
      test_roofline_vs_ecm_ordering ]

(* ------------------------------------------------------------------ *)
(* Properties of the model over five machines x the suite, and the two
   ways it is deliberately not monotone in the core count.             *)

module Prng = Yasksite_util.Prng

let machines =
  [| clx;
     Machine.rome;
     Machine.test_chip;
     Machine.scaled Machine.cascade_lake;
     Machine.scaled Machine.rome |]

let analyses =
  Array.of_list
    (List.map
       (fun s -> Analysis.of_spec (Suite.resolve_defaults s))
       Suite.all)

let pick rng a = a.(Prng.int rng ~bound:(Array.length a))

(* A random machine, suite kernel, grid and configuration. *)
let random_case rng =
  let m = pick rng machines and a = pick rng analyses in
  let rank = a.Analysis.spec.Yasksite_stencil.Spec.rank in
  let dims = Array.init rank (fun _ -> 16 * (1 + Prng.int rng ~bound:32)) in
  let block =
    Array.map (fun d -> if Prng.bool rng then 0 else 1 + Prng.int rng ~bound:d)
      dims
  in
  let fold = Array.init rank (fun _ -> pick rng [| 1; 1; 2; 4 |]) in
  let config =
    Config.v ~block ~fold
      ~threads:(1 + Prng.int rng ~bound:m.Machine.cores)
      ~wavefront:(pick rng [| 1; 1; 2; 4 |])
      ~streaming_stores:(Prng.int rng ~bound:4 = 0)
      ()
  in
  (m, a, dims, config)

(* Growing one block extent only grows the working sets the layer
   conditions compare against a level's share, so no level's traffic
   may fall. Each case steps one extent from 1 up to the grid. *)
let lc_monotone_in_block =
  QCheck.Test.make ~name:"LC lines/CL non-decreasing as a block extent grows"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let m, a, dims, config = random_case rng in
      let d = Prng.int rng ~bound:(Array.length dims) in
      let lines e =
        let block = Array.copy (Option.get config.Config.block) in
        block.(d) <- e;
        Array.map
          (fun (b : Lc.boundary) -> b.Lc.lines_per_cl)
          (Lc.boundaries m a ~dims ~config:{ config with Config.block = Some block })
      in
      let rec steps prev e =
        e > dims.(d)
        ||
        let cur = lines e in
        Array.for_all2 ( <= ) prev cur && steps cur (e + 1 + (e / 3))
      in
      steps (lines 1) 2)

(* Chip bandwidth only raises the saturation ceiling; the single-core
   terms do not read it. *)
let more_bandwidth_never_slower =
  QCheck.Test.make ~name:"doubling chip memory bandwidth never lowers lups_chip"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let m, a, dims, config = random_case rng in
      let m2 = { m with Machine.mem_bw_chip_gbs = 2.0 *. m.Machine.mem_bw_chip_gbs } in
      (Model.predict m2 a ~dims ~config).Model.lups_chip
      >= (Model.predict m a ~dims ~config).Model.lups_chip)

let clx8 = Machine.scaled Machine.cascade_lake

let heat2d = Analysis.of_spec (Suite.resolve_defaults Suite.heat_2d_5pt)

let heat3d_resolved =
  Analysis.of_spec (Suite.resolve_defaults Suite.heat_3d_7pt)

(* Residency is decided per core (slice footprint against the cache
   share), so adding a thread can make every core's slice fit and the
   single-core T_ECM drop. *)
let test_t_ecm_drops_when_slices_fit () =
  let t_ecm threads =
    (Model.predict clx8 heat2d ~dims:[| 256; 256 |]
       ~config:(Config.v ~threads ()))
      .Model.t_ecm
  in
  Alcotest.(check (float 1e-9)) "7 threads" 19.5 (t_ecm 7);
  Alcotest.(check (float 1e-9)) "8 threads: the slices fit" 7.5 (t_ecm 8)

(* A wavefront's traffic reduction holds only while its window fits the
   last-level share; one more thread shrinks the share below the window
   and the chip prediction falls. *)
let test_wavefront_window_leaves_l3_share () =
  let chip threads =
    let config = Config.v ~threads ~wavefront:2 () in
    ( (Model.predict clx8 heat2d ~dims:[| 2048; 2048 |] ~config).Model.lups_chip,
      Lc.wavefront_fits clx8 heat2d ~dims:[| 2048; 2048 |] ~config )
  in
  let l15, fits15 = chip 15 and l16, fits16 = chip 16 in
  Alcotest.(check bool) "window fits at 15 threads" true fits15;
  Alcotest.(check bool) "window leaves the share at 16" false fits16;
  Alcotest.(check (float 0.005)) "15 threads GLUP/s" 8.19 (l15 /. 1e9);
  Alcotest.(check (float 0.005)) "16 threads GLUP/s" 4.38 (l16 /. 1e9)

(* The saturation search looks for the first core count whose chip
   performance reaches the memory ceiling. On clx/8 that is 15 cores
   for heat-3d-7pt at 64^3; at 19 cores the L3 share has broken a layer
   condition and the per-core performance has dropped so far that the
   chip falls below the ceiling again. A search that assumed
   [n * P1(n)] monotone (bisection, a closed form) could miss the first
   crossing. *)
let test_first_crossing_not_monotone () =
  let dims = [| 64; 64; 64 |] in
  let p1 n =
    (Model.predict clx8 heat3d_resolved ~dims
       ~config:(Config.v ~threads:n ()))
      .Model.lups_single
  in
  let chip n = float_of_int n *. p1 n /. 1e9 in
  let p = Model.predict clx8 heat3d_resolved ~dims ~config:Config.default in
  Alcotest.(check (float 1e-9)) "ceiling GLUP/s" 4.375
    (p.Model.lups_saturated /. 1e9);
  Alcotest.(check int) "first crossing" 15 p.Model.saturation_cores;
  Alcotest.(check (float 0.005)) "15 P1(15) GLUP/s" 4.63 (chip 15);
  Alcotest.(check bool) "14 cores stay below the ceiling" true
    (chip 14 < 4.375);
  Alcotest.(check (float 0.005)) "19 P1(19) GLUP/s" 4.34 (chip 19);
  Alcotest.(check bool) "19 cores fall below the ceiling again" true
    (chip 19 < 4.375)

let property_suite =
  [ QCheck_alcotest.to_alcotest lc_monotone_in_block;
    QCheck_alcotest.to_alcotest more_bandwidth_never_slower;
    Alcotest.test_case "T_ECM drops when per-core slices fit" `Quick
      test_t_ecm_drops_when_slices_fit;
    Alcotest.test_case "wavefront window leaving the L3 share" `Quick
      test_wavefront_window_leaves_l3_share;
    Alcotest.test_case "first saturation crossing is not monotone" `Quick
      test_first_crossing_not_monotone ]

(* ------------------------------------------------------------------ *)
(* The staged model against [Ecm_reference], bit for bit. Predictions
   compare as [render_prediction] renders them: every field, floats in
   hex.                                                                 *)

module Ref = Ecm_reference

let hex = Printf.sprintf "%h"

let render_boundary (b : Lc.boundary) =
  Printf.sprintf "%s %s %s %s" b.Lc.level_name
    (match b.Lc.condition with
    | Lc.All_fits -> "allfits"
    | Lc.Outer_reuse -> "outer"
    | Lc.Row_reuse -> "row"
    | Lc.No_reuse -> "none")
    (hex b.Lc.lines_per_cl) (hex b.Lc.bytes_per_lup)

let render_boundaries bs =
  String.concat "; " (Array.to_list (Array.map render_boundary bs))

let render_prediction (p : Model.prediction) =
  let i = p.Model.incore in
  String.concat "\n"
    [ Config.to_string p.Model.config;
      Printf.sprintf "%s %s %s %s %s %d %d %d" (hex i.Incore.t_ol)
        (hex i.Incore.t_nol) (hex i.Incore.vector_loads)
        (hex i.Incore.vector_stores) (hex i.Incore.shuffles) i.Incore.fma
        i.Incore.adds i.Incore.muls;
      render_boundaries p.Model.boundaries;
      String.concat " " (Array.to_list (Array.map hex p.Model.t_data));
      Printf.sprintf "%s %s %s %s %s %d %s %s" (hex p.Model.t_ecm)
        (hex p.Model.cy_per_lup) (hex p.Model.lups_single)
        (hex p.Model.mem_bytes_per_lup) (hex p.Model.lups_saturated)
        p.Model.saturation_cores (hex p.Model.lups_chip)
        (hex p.Model.flops_chip) ]

(* [None] when [m], [a], [dims] and [config] get the same prediction and
   the same layer-condition results from both; else what differs. *)
let disagreement m a ~dims ~config =
  let what = ref [] in
  let check name ours theirs =
    if ours <> theirs then
      what :=
        Printf.sprintf "%s:\n  staged    %s\n  reference %s" name ours theirs
        :: !what
  in
  check "predict"
    (render_prediction (Model.predict m a ~dims ~config))
    (render_prediction (Ref.Model.predict m a ~dims ~config));
  check "Lc.boundaries"
    (render_boundaries (Lc.boundaries m a ~dims ~config))
    (render_boundaries (Ref.Lc.boundaries m a ~dims ~config));
  check "Lc.mem_bytes_per_lup"
    (hex (Lc.mem_bytes_per_lup m a ~dims ~config))
    (hex (Ref.Lc.mem_bytes_per_lup m a ~dims ~config));
  check "Lc.wavefront_fits"
    (string_of_bool (Lc.wavefront_fits m a ~dims ~config))
    (string_of_bool (Ref.Lc.wavefront_fits m a ~dims ~config));
  match !what with
  | [] -> None
  | l ->
      Some
        (Printf.sprintf "%s, %s, %s, %s:\n%s" m.Machine.name
           a.Analysis.spec.Yasksite_stencil.Spec.name
           (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
           (Config.describe config)
           (String.concat "\n" (List.rev l)))

let check_agrees m a ~dims ~config =
  match disagreement m a ~dims ~config with
  | None -> ()
  | Some d -> Alcotest.fail d

let all_machines =
  lazy
    (Array.append machines (Array.of_list (Test_schedule.shipped_machines ())))

let staged_equals_reference =
  QCheck.Test.make
    ~name:"staged model = reference, every field, seven machines x the suite"
    ~count:1000 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let m = pick rng (Lazy.force all_machines) and a = pick rng analyses in
      let rank = a.Analysis.spec.Yasksite_stencil.Spec.rank in
      let dims = Array.init rank (fun _ -> 8 * (1 + Prng.int rng ~bound:64)) in
      let block =
        if Prng.int rng ~bound:4 = 0 then None
        else
          Some
            (Array.map
               (fun d -> if Prng.bool rng then 0 else 1 + Prng.int rng ~bound:d)
               dims)
      in
      let fold =
        if Prng.int rng ~bound:4 = 0 then None
        else Some (Array.init rank (fun _ -> pick rng [| 1; 1; 2; 4; 8 |]))
      in
      let config =
        Config.v ?block ?fold
          ~threads:(1 + Prng.int rng ~bound:m.Machine.cores)
          ~wavefront:(pick rng [| 1; 1; 2; 4; 8 |])
          ~streaming_stores:(Prng.int rng ~bound:4 = 0)
          ()
      in
      match disagreement m a ~dims ~config with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* perfbench's [rank] spaces: the legal heat-3d-7pt configs at 64^3 on
   clx/8 and rome/8, at 1 thread and at every core. *)
let test_rank_spaces_equal_reference () =
  let dims = [| 64; 64; 64 |] in
  let legal = Yasksite_lint.Schedule_lint.legal heat3d_resolved ~dims in
  List.iter
    (fun (m, size) ->
      let space =
        List.filter legal (Advisor.space m ~dims ~threads:1 ~rank:3)
      in
      Alcotest.(check int) (m.Machine.name ^ " legal configs") size
        (List.length space);
      List.iter
        (fun c ->
          List.iter
            (fun threads ->
              check_agrees m heat3d_resolved ~dims
                ~config:{ c with Config.threads })
            [ 1; m.Machine.cores ])
        space)
    [ (clx8, 550); (Machine.scaled Machine.rome, 330) ]

(* E5's three scaling cases: [chip_scaling] against the reference's
   [lups_chip] at every core count, and each count's full prediction. *)
let test_e5_scaling_equals_reference () =
  let heat2d_384 = ([| 384; 384 |], heat2d) in
  let heat3d_64 = ([| 64; 64; 64 |], heat3d_resolved) in
  List.iter
    (fun (m, (dims, a)) ->
      let scaling =
        Model.chip_scaling m a ~dims ~config:Config.default
          ~max_threads:m.Machine.cores
      in
      Alcotest.(check int) "one entry per core" m.Machine.cores
        (Array.length scaling);
      Array.iter
        (fun (n, lups) ->
          let config = Config.v ~threads:n () in
          let r = Ref.Model.predict m a ~dims ~config in
          Alcotest.(check string)
            (Printf.sprintf "%s %d cores" m.Machine.name n)
            (hex r.Ref.Model.lups_chip) (hex lups);
          check_agrees m a ~dims ~config)
        scaling)
    [ (clx8, heat3d_64); (clx8, heat2d_384);
      (Machine.scaled Machine.rome, heat3d_64) ]

(* Bad input raises what the reference raises. *)
let test_bad_input_raises_as_reference () =
  let outcome f =
    match f () with
    | _ -> "returned"
    | exception e -> Printexc.to_string e
  in
  let dims = [| 64; 64; 64 |] in
  List.iter
    (fun (what, dims, config) ->
      let same name ours theirs =
        Alcotest.(check string) (what ^ ": " ^ name) (outcome theirs)
          (outcome ours)
      in
      same "predict"
        (fun () -> ignore (Model.predict clx heat3d ~dims ~config))
        (fun () -> ignore (Ref.Model.predict clx heat3d ~dims ~config));
      same "boundaries"
        (fun () -> ignore (Lc.boundaries clx heat3d ~dims ~config))
        (fun () -> ignore (Ref.Lc.boundaries clx heat3d ~dims ~config));
      same "mem_bytes_per_lup"
        (fun () -> ignore (Lc.mem_bytes_per_lup clx heat3d ~dims ~config))
        (fun () -> ignore (Ref.Lc.mem_bytes_per_lup clx heat3d ~dims ~config)))
    [ ("dims rank", [| 64; 64 |], Config.default);
      ("block rank", dims, Config.v ~block:[| 0; 8 |] ());
      ("fold rank", dims, Config.v ~fold:[| 2; 4 |] ());
      ("fold and dims rank", [| 64; 64 |], Config.v ~fold:[| 2; 4 |] ());
      ("no threads", dims, { Config.default with Config.threads = 0 }) ];
  Alcotest.(check bool) "no wavefront: fits without staging" true
    (Lc.wavefront_fits clx heat3d ~dims:[| 64 |] ~config:Config.default)

let reference_suite =
  [ QCheck_alcotest.to_alcotest staged_equals_reference;
    Alcotest.test_case "rank spaces equal the reference" `Quick
      test_rank_spaces_equal_reference;
    Alcotest.test_case "E5 scaling equals the reference" `Quick
      test_e5_scaling_equals_reference;
    Alcotest.test_case "bad input raises as the reference" `Quick
      test_bad_input_raises_as_reference ]

let suite =
  base_suite @ extra_suite @ more_suite @ property_suite @ reference_suite
