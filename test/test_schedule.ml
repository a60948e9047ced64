(* Schedule-legality analyzer (YS4xx) and shadow-memory sanitizer
   (YS45x): unit tests per static rule, an adversarial corpus of illegal
   schedules that must be BOTH statically rejected and dynamically
   trapped when forced through the engine with the gates bypassed, and
   the zero-trap sweep over the legal tuning space of the shipped
   machine files. *)

module Machine = Yasksite_arch.Machine
module Machine_file = Yasksite_arch.Machine_file
module Grid = Yasksite_grid.Grid
module Spec = Yasksite_stencil.Spec
module Suite = Yasksite_stencil.Suite
module Analysis = Yasksite_stencil.Analysis
module Parser = Yasksite_stencil.Parser
module Gen = Yasksite_stencil.Gen
module Config = Yasksite_ecm.Config
module Advisor = Yasksite_ecm.Advisor
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Sanitizer = Yasksite_engine.Sanitizer
module Cert = Yasksite_engine.Cert
module Tuner = Yasksite_tuner.Tuner
module Lint = Yasksite_lint.Lint
module Schedule = Yasksite_lint.Schedule_lint
module D = Yasksite_lint.Diagnostic
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let has code ds = List.exists (fun (d : D.t) -> d.D.code = code) ds

let info_of spec = Analysis.of_spec spec

let heat1 = Suite.resolve_defaults Suite.heat_1d_3pt

let heat2 = Suite.resolve_defaults Suite.heat_2d_5pt

let heat3 = Suite.resolve_defaults Suite.heat_3d_7pt

let varcoef = Suite.resolve_defaults Suite.varcoef_3d_7pt

(* Radius-2 1D star, for distinguishing version skew (stagger <= r-1)
   from same-front order dependence (stagger = r). *)
let star1_r2 =
  match
    Parser.parse_spec ~name:"star-1d-r2" ~rank:1
      "0.2*(f0(x-2)+f0(x+2))+0.2*(f0(x-1)+f0(x+1))+0.2*f0(x)"
  with
  | Ok s -> s
  | Error m -> failwith m

(* Forward reach 2 with no +-1 reads: an under-staggered wavefront
   skips the same-front plane and goes straight to a version skew. *)
let gap1_r2 =
  match
    Parser.parse_spec ~name:"gap-1d-r2" ~rank:1
      "0.3*f0(x-2)+0.3*f0(x+2)+0.4*f0(x)"
  with
  | Ok s -> s
  | Error m -> failwith m

(* Upwind: all streamed-dimension reads are backward (forward reach 0,
   backward reach 2). The legal minimum stagger is 2, not radius+1 = 3:
   the binding dependence is the anti one (ping-pong buffer reuse). *)
let upwind1 =
  match
    Parser.parse_spec ~name:"upwind-1d" ~rank:1 "0.5*f0(x-2)+0.5*f0(x)"
  with
  | Ok s -> s
  | Error m -> failwith m

(* Pointwise kernel: radius 0, the one legal in-place pattern. *)
let pointwise1 =
  match Parser.parse_spec ~name:"scale-1d" ~rank:1 "0.5*f0(x)" with
  | Ok s -> s
  | Error m -> failwith m

let make_grid ?space ?(layout = Grid.Linear) ?halo ~dims ~seed () =
  let halo = match halo with Some h -> h | None -> Array.map (fun _ -> 2) dims in
  let g = Grid.create ?space ~halo ~layout ~dims () in
  let rng = Prng.create ~seed in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.0;
  g

(* ------------------------------------------------------------------ *)
(* Static rules, one positive and one negative case per code           *)

let test_ys400_stagger () =
  let i = info_of heat2 in
  let dims = [| 16; 16 |] in
  let bad = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  Alcotest.(check bool) "stagger r rejected" true
    (has "YS400" (Schedule.schedule i ~dims bad));
  Alcotest.(check bool) "not legal" false (Schedule.legal i ~dims bad);
  let ok = Config.v ~wavefront:2 ~wavefront_stagger:2 () in
  Alcotest.(check bool) "stagger r+1 accepted" false
    (has "YS400" (Schedule.schedule i ~dims ok));
  (* Default stagger is radius+1 and therefore always legal. *)
  Alcotest.(check int) "default stagger" 2
    (Schedule.effective_stagger i (Config.v ~wavefront:4 ()));
  (* Depth 1 has no temporal dependence: any stagger is vacuously ok. *)
  Alcotest.(check bool) "depth 1 unconstrained" false
    (has "YS400"
       (Schedule.schedule i ~dims (Config.v ~wavefront_stagger:1 ())));
  (* Forward reach 2 raises the bound to 3. *)
  let i2 = info_of star1_r2 in
  Alcotest.(check bool) "reach-2 bound" true
    (has "YS400"
       (Schedule.schedule i2 ~dims:[| 24 |]
          (Config.v ~wavefront:2 ~wavefront_stagger:2 ())));
  (* Asymmetric bound: the upwind stencil (reach -2..0) needs only
     stagger 2 (backward reach) where the radius rule would demand 3 —
     but stagger 1 lets step t+1 overwrite planes later fronts still
     read. *)
  let iu = info_of upwind1 in
  Alcotest.(check bool) "upwind legal at stagger 2" false
    (has "YS400"
       (Schedule.schedule iu ~dims:[| 24 |]
          (Config.v ~wavefront:2 ~wavefront_stagger:2 ())));
  Alcotest.(check bool) "upwind illegal at stagger 1" true
    (has "YS400"
       (Schedule.schedule iu ~dims:[| 24 |]
          (Config.v ~wavefront:2 ~wavefront_stagger:1 ())))

let test_ys401_single_field () =
  let i = info_of varcoef in
  let dims = [| 8; 8; 8 |] in
  Alcotest.(check bool) "multi-field wavefront rejected" true
    (has "YS401" (Schedule.schedule i ~dims (Config.v ~wavefront:2 ())));
  Alcotest.(check bool) "multi-field spatial ok" false
    (has "YS401" (Schedule.schedule i ~dims Config.default));
  (* The wavefront engine needs one field even at depth 1 (it only has
     the ping-pong pair). *)
  Alcotest.(check bool) "engine gate at depth 1" true
    (has "YS401" (Schedule.wavefront_rules i ~dims Config.default))

let test_ys403_alias () =
  let i = info_of heat1 in
  let g = make_grid ~dims:[| 12 |] ~seed:1 () in
  let other = make_grid ~dims:[| 12 |] ~seed:2 () in
  Alcotest.(check bool) "aliased neighbourhood read rejected" true
    (has "YS403" (Schedule.grids i Config.default ~inputs:[| g |] ~output:g));
  Alcotest.(check bool) "distinct grids ok" false
    (has "YS403"
       (Schedule.grids i Config.default ~inputs:[| g |] ~output:other));
  (* A pointwise kernel may update in place. *)
  let ip = info_of pointwise1 in
  Alcotest.(check bool) "pointwise in-place allowed" false
    (has "YS403" (Schedule.grids ip Config.default ~inputs:[| g |] ~output:g))

let test_ys404_halo () =
  let i = info_of heat1 in
  let thin = make_grid ~halo:[| 0 |] ~dims:[| 12 |] ~seed:1 () in
  let out = make_grid ~halo:[| 0 |] ~dims:[| 12 |] ~seed:2 () in
  Alcotest.(check bool) "thin halo rejected" true
    (has "YS404"
       (Schedule.grids i Config.default ~inputs:[| thin |] ~output:out));
  let wide = make_grid ~halo:[| 1 |] ~dims:[| 12 |] ~seed:1 () in
  Alcotest.(check bool) "covering halo ok" false
    (has "YS404"
       (Schedule.grids i Config.default ~inputs:[| wide |] ~output:out))

let test_ys405_layout () =
  let i = info_of heat1 in
  let lin = make_grid ~dims:[| 16 |] ~seed:1 () in
  let out = make_grid ~dims:[| 16 |] ~seed:2 () in
  let cfg = Config.v ~fold:[| 2 |] () in
  Alcotest.(check bool) "linear grids under folded schedule rejected" true
    (has "YS405" (Schedule.grids i cfg ~inputs:[| lin |] ~output:out));
  let folded = make_grid ~layout:(Grid.Folded [| 2 |]) ~dims:[| 16 |] ~seed:1 () in
  let fout = make_grid ~layout:(Grid.Folded [| 2 |]) ~dims:[| 16 |] ~seed:2 () in
  Alcotest.(check bool) "matching folded grids ok" false
    (has "YS405" (Schedule.grids i cfg ~inputs:[| folded |] ~output:fout))

let test_ys406_partition () =
  let dims = [| 8; 8 |] in
  let whole = ([| 0; 0 |], [| 8; 8 |]) in
  Alcotest.(check bool) "exact cover ok" true
    (Schedule.partition ~dims [ whole ] = []);
  let halves = [ ([| 0; 0 |], [| 8; 4 |]); ([| 0; 4 |], [| 8; 8 |]) ] in
  Alcotest.(check bool) "two halves ok" true
    (Schedule.partition ~dims halves = []);
  Alcotest.(check bool) "gap detected" true
    (has "YS406" (Schedule.partition ~dims [ ([| 0; 0 |], [| 8; 4 |]) ]));
  let overlapping = [ ([| 0; 0 |], [| 8; 5 |]); ([| 0; 4 |], [| 8; 8 |]) ] in
  Alcotest.(check bool) "overlap detected" true
    (has "YS406" (Schedule.partition ~dims overlapping));
  Alcotest.(check bool) "out of bounds detected" true
    (has "YS406" (Schedule.partition ~dims [ ([| 0; 0 |], [| 8; 9 |]) ]));
  Alcotest.(check bool) "rank mismatch detected" true
    (has "YS406" (Schedule.partition ~dims [ ([| 0 |], [| 8 |]) ]))

let test_ys408_fold_overflow () =
  let i = info_of heat2 in
  Alcotest.(check bool) "fold wider than grid rejected" true
    (has "YS408"
       (Schedule.schedule i ~dims:[| 4; 4 |] (Config.v ~fold:[| 1; 8 |] ())));
  Alcotest.(check bool) "fitting fold ok" false
    (has "YS408"
       (Schedule.schedule i ~dims:[| 16; 16 |] (Config.v ~fold:[| 1; 8 |] ())))

let test_ys409_rank () =
  let i = info_of heat2 in
  Alcotest.(check bool) "rank mismatch rejected" true
    (has "YS409" (Schedule.schedule i ~dims:[| 16 |] Config.default));
  let g1 = make_grid ~dims:[| 12 |] ~seed:1 () in
  let g2 = make_grid ~dims:[| 10 |] ~seed:2 () in
  Alcotest.(check bool) "extent mismatch rejected" true
    (has "YS409"
       (Schedule.grids (info_of heat1) Config.default ~inputs:[| g1 |]
          ~output:g2));
  Alcotest.(check bool) "missing field grids rejected" true
    (has "YS409"
       (Schedule.grids (info_of varcoef) Config.default ~inputs:[||]
          ~output:(make_grid ~dims:[| 6; 6; 6 |] ~seed:3 ())))

(* ------------------------------------------------------------------ *)
(* Adversarial corpus: every entry is (a) statically rejected with the
   expected YS4xx code and (b) traps with the expected YS45x code when
   forced through the engine with the gates bypassed.                  *)

let trap_code f =
  try
    ignore (f ());
    None
  with Sanitizer.Trap t -> Some (Sanitizer.code_of_kind t.Sanitizer.kind)

let check_corpus name ~static ~static_code ~dynamic ~trap =
  Alcotest.(check bool)
    (name ^ " statically rejected with " ^ static_code)
    true
    (has static_code static && D.has_errors static);
  Alcotest.(check (option string)) (name ^ " traps " ^ trap) (Some trap)
    (trap_code dynamic)

(* 1. Wavefront stagger below the forward reach: version skew
   (YS400 / YS452). The +-1-free stencil never touches the same-front
   plane, so the first illegal read is of a plane a FUTURE front
   produces. *)
let corpus_stagger_skew () =
  let i = info_of gap1_r2 in
  let dims = [| 24 |] in
  let cfg = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  check_corpus "reach=2 stagger=1 skew"
    ~static:(Schedule.schedule i ~dims cfg)
    ~static_code:"YS400"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:1 () and b = make_grid ~dims ~seed:2 () in
      Wavefront.steps ~check:false ~sanitize:san ~config:cfg gap1_r2 ~a ~b
        ~steps:2)
    ~trap:"YS452"

(* 2. Wavefront stagger equal to the radius: same-front order dependence
   (YS400 / YS451). *)
let corpus_stagger_same_front () =
  let i = info_of heat1 in
  let dims = [| 16 |] in
  let cfg = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  check_corpus "r=1 stagger=1 same-front"
    ~static:(Schedule.schedule i ~dims cfg)
    ~static_code:"YS400"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:3 () and b = make_grid ~dims ~seed:4 () in
      Wavefront.steps ~check:false ~sanitize:san ~config:cfg heat1 ~a ~b
        ~steps:2)
    ~trap:"YS451"

(* 3. The same under-stagger in 3D. *)
let corpus_stagger_3d () =
  let i = info_of heat3 in
  let dims = [| 8; 6; 6 |] in
  let cfg = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  check_corpus "3D stagger=1"
    ~static:(Schedule.schedule i ~dims cfg)
    ~static_code:"YS400"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:5 () and b = make_grid ~dims ~seed:6 () in
      Wavefront.steps ~check:false ~sanitize:san ~config:cfg heat3 ~a ~b
        ~steps:2)
    ~trap:"YS451"

(* 4. Aliased in-place sweep: the output is also the (radius > 0) input
   (YS403 / YS452). *)
let corpus_aliased_sweep () =
  let i = info_of heat1 in
  let g = make_grid ~dims:[| 12 |] ~seed:7 () in
  check_corpus "aliased sweep"
    ~static:(Schedule.grids i Config.default ~inputs:[| g |] ~output:g)
    ~static_code:"YS403"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      Sweep.run ~check:false ~sanitize:san heat1 ~inputs:[| g |] ~output:g)
    ~trap:"YS452"

(* 5. Aliased wavefront: both ping-pong buffers are the same grid
   (YS403 / YS452). *)
let corpus_aliased_wavefront () =
  let i = info_of heat1 in
  let g = make_grid ~dims:[| 12 |] ~seed:8 () in
  check_corpus "aliased wavefront"
    ~static:(Schedule.grids i Config.default ~inputs:[| g |] ~output:g)
    ~static_code:"YS403"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      Wavefront.steps ~check:false ~sanitize:san heat1 ~a:g ~b:g ~steps:2)
    ~trap:"YS452"

(* 6. Non-covering partition: a slice is missing, output cells are never
   written (YS406 / YS454). *)
let corpus_partition_gap () =
  let dims = [| 8; 8 |] in
  let boxes = [ ([| 0; 0 |], [| 8; 4 |]) ] in
  check_corpus "partition gap"
    ~static:(Schedule.partition ~dims boxes)
    ~static_code:"YS406"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:9 () in
      let o = make_grid ~dims ~seed:10 () in
      Sanitizer.register san a;
      Sanitizer.register san o;
      let pass = Sanitizer.begin_sweep san ~inputs:[| a |] ~output:o in
      let sl = Sanitizer.slice pass 0 in
      let _ =
        Sweep.run_region ~check:false ~sanitize:sl heat2 ~inputs:[| a |]
          ~output:o ~lo:[| 0; 0 |] ~hi:[| 8; 4 |]
      in
      Sanitizer.end_sweep pass)
    ~trap:"YS454"

(* 7. Overlapping partition: two slices write the same cells
   (YS406 / YS450). *)
let corpus_partition_overlap () =
  let dims = [| 8; 8 |] in
  let boxes = [ ([| 0; 0 |], [| 8; 5 |]); ([| 0; 4 |], [| 8; 8 |]) ] in
  check_corpus "partition overlap"
    ~static:(Schedule.partition ~dims boxes)
    ~static_code:"YS406"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:11 () in
      let o = make_grid ~dims ~seed:12 () in
      Sanitizer.register san a;
      Sanitizer.register san o;
      let pass = Sanitizer.begin_sweep san ~inputs:[| a |] ~output:o in
      List.iteri
        (fun s (lo, hi) ->
          ignore
            (Sweep.run_region ~check:false
               ~sanitize:(Sanitizer.slice pass s)
               heat2 ~inputs:[| a |] ~output:o ~lo ~hi))
        boxes;
      Sanitizer.end_sweep pass)
    ~trap:"YS450"

(* 8. Region escaping the iteration space (YS406 / YS453). The trap
   fires before the engine's unchecked Bigarray access would run. *)
let corpus_region_oob () =
  let dims = [| 8; 8 |] in
  check_corpus "out-of-bounds region"
    ~static:(Schedule.partition ~dims [ ([| 0; 0 |], [| 8; 10 |]) ])
    ~static_code:"YS406"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~halo:[| 2; 2 |] ~dims ~seed:13 () in
      let o = make_grid ~halo:[| 2; 2 |] ~dims ~seed:14 () in
      Sanitizer.register san a;
      Sanitizer.register san o;
      let pass = Sanitizer.begin_sweep san ~inputs:[| a |] ~output:o in
      Sweep.run_region ~check:false ~sanitize:(Sanitizer.slice pass 0) heat2
        ~inputs:[| a |] ~output:o ~lo:[| 0; 0 |] ~hi:[| 8; 10 |])
    ~trap:"YS453"

(* 9. Halo thinner than the stencil radius: neighbour reads leave the
   allocation (YS404 / YS453). The OCaml engine's kernel compiler
   refuses to emit this access pattern (defense in depth), so the
   dynamic half replays the schedule's first boundary-cell read — the
   access an unchecked native kernel would perform — through the
   sanitizer. *)
let corpus_thin_halo () =
  let i = info_of heat1 in
  let thin = make_grid ~halo:[| 0 |] ~dims:[| 12 |] ~seed:15 () in
  let out = make_grid ~halo:[| 0 |] ~dims:[| 12 |] ~seed:16 () in
  check_corpus "thin halo"
    ~static:(Schedule.grids i Config.default ~inputs:[| thin |] ~output:out)
    ~static_code:"YS404"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      Sanitizer.register san thin;
      Sanitizer.register san out;
      let pass = Sanitizer.begin_sweep san ~inputs:[| thin |] ~output:out in
      (* Updating cell 0 reads f0(x-1), i.e. coordinate -1. *)
      Sanitizer.reader (Sanitizer.slice pass 0) thin [| -1 |])
    ~trap:"YS453"

(* 10. Schedule claims a vector fold the grids do not have
   (YS405 / YS456). *)
let corpus_fold_mismatch () =
  let i = info_of heat1 in
  let lin = make_grid ~dims:[| 16 |] ~seed:17 () in
  let out = make_grid ~dims:[| 16 |] ~seed:18 () in
  let cfg = Config.v ~fold:[| 2 |] () in
  check_corpus "fold/layout mismatch"
    ~static:(Schedule.grids i cfg ~inputs:[| lin |] ~output:out)
    ~static_code:"YS405"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      Sweep.run ~check:false ~sanitize:san ~config:cfg heat1
        ~inputs:[| lin |] ~output:out)
    ~trap:"YS456"

(* 11. Anti-dependence: the upwind stencil at stagger 1 lets step t+1
   overwrite ping-pong planes later fronts still need to re-read
   (YS400 / YS452). *)
let corpus_upwind_anti () =
  let i = info_of upwind1 in
  let dims = [| 20 |] in
  let cfg = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  check_corpus "upwind stagger=1 anti-dependence"
    ~static:(Schedule.schedule i ~dims cfg)
    ~static_code:"YS400"
    ~dynamic:(fun () ->
      let san = Sanitizer.create () in
      let a = make_grid ~dims ~seed:21 () and b = make_grid ~dims ~seed:22 () in
      Wavefront.steps ~check:false ~sanitize:san ~config:cfg upwind1 ~a ~b
        ~steps:2)
    ~trap:"YS452"

(* ------------------------------------------------------------------ *)
(* Agreement property: the YS400 verdict and the sanitizer agree on
   random single-field stencils, wavefront depths and staggers.        *)

let verdicts_agree =
  QCheck.Test.make ~name:"static verdict agrees with sanitizer" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:2 in
      let spec = Gen.spec rng ~rank in
      let info = Analysis.of_spec spec in
      let r0 = info.Analysis.radius.(0) in
      let depth = 2 + Prng.int rng ~bound:3 in
      let stagger = 1 + Prng.int rng ~bound:(r0 + 2) in
      let cfg = Config.v ~wavefront:depth ~wavefront_stagger:stagger () in
      let n0 = (r0 + 3) * depth + 8 in
      let dims =
        Array.init rank (fun d -> if d = 0 then n0 else 6 + Prng.int rng ~bound:6)
      in
      let legal = Schedule.legal info ~dims cfg in
      let halo = Analysis.halo info in
      let mk seed =
        let g = Grid.create ~halo ~dims () in
        let rng = Prng.create ~seed in
        Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
        Grid.halo_dirichlet g 0.0;
        g
      in
      let a = mk (seed + 100) and b = mk (seed + 200) in
      let san = Sanitizer.create () in
      let trapped =
        try
          ignore
            (Wavefront.steps ~check:false ~sanitize:san ~config:cfg spec ~a
               ~b ~steps:depth);
          false
        with Sanitizer.Trap _ -> true
      in
      legal = not trapped)

(* Legal schedules leave the output bit-identical with and without the
   sanitizer: the shadow pass observes, never perturbs. *)
let sanitizer_is_transparent =
  QCheck.Test.make ~name:"sanitizer never changes results" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:3 in
      let spec = Gen.spec rng ~rank in
      let info = Analysis.of_spec spec in
      let halo = Analysis.halo info in
      let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
      let mk seed =
        let g = Grid.create ~halo ~dims () in
        let rng = Prng.create ~seed in
        Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
        Grid.halo_dirichlet g 0.0;
        g
      in
      let a1 = mk (seed + 1) and o1 = mk (seed + 2) in
      let a2 = mk (seed + 1) and o2 = mk (seed + 2) in
      let _ = Sweep.run spec ~inputs:[| a1 |] ~output:o1 in
      let san = Sanitizer.create () in
      let _ = Sweep.run ~sanitize:san spec ~inputs:[| a2 |] ~output:o2 in
      Grid.max_abs_diff o1 o2 = 0.0)

(* ------------------------------------------------------------------ *)
(* Whole-space checks over the shipped machine files                    *)

let shipped_machines () =
  let files =
    List.map Repo_file.path
      [ "machines/skylake-sp.machine"; "machines/zen3.machine" ]
  in
  List.map
    (fun f ->
      match Machine_file.load f with
      | Ok m -> m
      | Error e -> failwith (f ^ ": " ^ e))
    files

let test_selflint_spaces () =
  (* For every shipped stencil and machine, the legality-filtered
     advisor space is non-empty and clean; single-field radius-1
     kernels lose no candidate at all (the advisor's defaults are
     provably legal). *)
  let machines = Machine.test_chip :: shipped_machines () in
  let dims_for rank =
    match rank with 1 -> [| 32 |] | 2 -> [| 16; 16 |] | _ -> [| 8; 8; 8 |]
  in
  List.iter
    (fun m ->
      List.iter
        (fun s ->
          let spec = Suite.resolve_defaults s in
          let info = Analysis.of_spec spec in
          let rank = spec.Spec.rank in
          let dims = dims_for rank in
          let space = Advisor.space m ~dims ~threads:4 ~rank in
          let legal = List.filter (Schedule.legal info ~dims) space in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s keeps candidates" spec.Spec.name
               m.Machine.name)
            true (legal <> []);
          let ds = Schedule.space info ~dims legal in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s legal space is clean" spec.Spec.name
               m.Machine.name)
            false (D.has_errors ds);
          if spec.Spec.n_fields = 1 then
            Alcotest.(check int)
              (Printf.sprintf "%s on %s loses nothing" spec.Spec.name
                 m.Machine.name)
              (List.length space) (List.length legal))
        Suite.all)
    machines

let test_legal_space_zero_traps () =
  (* E16-style: sweep the whole legal tuning space of both shipped
     machine files under the fail-fast sanitizer on the per-point
     checked path — zero traps. No certificate is issued, so no sweep
     may take the certified fast path. Each config runs in Measure's
     order: a warm-up pass, then the measured pass over swapped grids,
     under one sanitizer. *)
  let dims = [| 12; 12 |] in
  let info = Analysis.of_spec heat2 in
  let halo = Analysis.halo info in
  let sweep_checked config =
    Cert.clear ();
    let layout = Grid.layout_of_fold config.Config.fold in
    let space = Grid.fresh_space () in
    let rng = Prng.create ~seed:42 in
    let grid () =
      let g = Grid.create ~space ~halo ~layout ~dims () in
      Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
      Grid.halo_dirichlet g 0.0;
      g
    in
    let a = grid () and b = grid () in
    let sanitize = Sanitizer.create () in
    let wf = config.Config.wavefront in
    if wf > 1 then begin
      let final, _ = Wavefront.steps ~sanitize ~config heat2 ~a ~b ~steps:wf in
      let a', b' = if final == a then (a, b) else (b, a) in
      ignore (Wavefront.steps ~sanitize ~config heat2 ~a:a' ~b:b' ~steps:wf)
    end
    else begin
      let run ~src ~dst =
        ignore (Sweep.run ~sanitize ~config heat2 ~inputs:[| src |] ~output:dst)
      in
      run ~src:a ~dst:b;
      run ~src:b ~dst:a;
      run ~src:a ~dst:b
    end;
    Cert.fast_path_hits ()
  in
  List.iter
    (fun m ->
      let space = Advisor.space m ~dims ~threads:2 ~rank:2 in
      let legal = List.filter (Schedule.legal info ~dims) space in
      Alcotest.(check int)
        (m.Machine.name ^ " advisor space all legal")
        (List.length space) (List.length legal);
      List.iter
        (fun config ->
          Alcotest.(check int)
            (m.Machine.name ^ " " ^ Config.describe config
           ^ " swept on the checked path")
            0 (sweep_checked config))
        legal)
    (shipped_machines ())

(* ------------------------------------------------------------------ *)
(* Gates: tuner pruning, advisor filter, engine entry points            *)

let test_tuner_prunes () =
  let m = Machine.test_chip in
  let dims = [| 12; 12 |] in
  let bad = Config.v ~wavefront:2 ~wavefront_stagger:1 () in
  let good = Config.v ~block:[| 0; 4 |] () in
  let r =
    Tuner.tune_empirical ~space:[ bad; good ] m heat2 ~dims ~threads:1
  in
  Alcotest.(check int) "one candidate pruned" 1 r.Tuner.pruned;
  Alcotest.(check bool) "chosen is the legal one" true
    (Config.equal r.Tuner.chosen good);
  Alcotest.(check bool) "analytic tune reports pruning" true
    ((Tuner.tune_analytic m heat2 ~dims ~threads:1).Tuner.pruned >= 0);
  (* An all-illegal space is a gate error carrying the analyzer's
     diagnostics, not a silent empty result. *)
  Alcotest.(check bool) "all-illegal space raises Gate_error" true
    (try
       ignore (Tuner.tune_empirical ~space:[ bad ] m heat2 ~dims ~threads:1);
       false
     with Lint.Gate_error msg -> Astring_contains.contains msg "YS400")

let test_advisor_filter () =
  let m = Machine.test_chip in
  let info = Analysis.of_spec varcoef in
  let dims = [| 6; 6; 6 |] in
  (* varcoef has two fields: every wavefront > 1 candidate is illegal
     (YS401) and must be pruned before scoring. *)
  let ranked =
    Advisor.rank_all ~filter:(Schedule.legal info ~dims) m info ~dims
      ~threads:1
  in
  Alcotest.(check bool) "filtered ranking non-empty" true (ranked <> []);
  Alcotest.(check bool) "no wavefront candidate survives" true
    (List.for_all (fun (c, _) -> c.Config.wavefront = 1) ranked)

let test_engine_gates () =
  (* Legality violations are refused at the engine entry points with
     the analyzer's diagnostics. *)
  let g = make_grid ~dims:[| 12 |] ~seed:30 () in
  Alcotest.(check bool) "sweep alias gated" true
    (try
       ignore (Sweep.run heat1 ~inputs:[| g |] ~output:g);
       false
     with Lint.Gate_error msg -> Astring_contains.contains msg "YS403");
  let a = make_grid ~dims:[| 12 |] ~seed:31 () in
  let b = make_grid ~dims:[| 12 |] ~seed:32 () in
  Alcotest.(check bool) "wavefront stagger gated" true
    (try
       ignore
         (Wavefront.steps
            ~config:(Config.v ~wavefront:2 ~wavefront_stagger:1 ())
            heat1 ~a ~b ~steps:2);
       false
     with Lint.Gate_error msg -> Astring_contains.contains msg "YS400");
  let v0 = make_grid ~dims:[| 6; 6; 6 |] ~seed:33 () in
  Alcotest.(check bool) "wavefront multi-field gated" true
    (try
       ignore (Wavefront.steps varcoef ~a:v0 ~b:v0 ~steps:1);
       false
     with Lint.Gate_error msg -> Astring_contains.contains msg "YS401")

(* ------------------------------------------------------------------ *)
(* JSON report schema                                                   *)

let test_json_schema () =
  let d =
    D.errorf ~loc:(D.Field "wavefront_stagger") ~code:"YS400"
      "bad \"stagger\"\nsecond line"
  in
  let one = D.report_to_json [ ("input", None, d) ] in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("finding has " ^ frag) true
        (Astring_contains.contains one frag))
    [ "\"code\":\"YS400\"";
      "\"severity\":\"error\"";
      "\"origin\":\"input\"";
      "\"loc\":{\"kind\":\"field\",\"field\":\"wavefront_stagger\"}";
      (* Quotes and newlines are escaped, never raw. *)
      "bad \\\"stagger\\\"\\nsecond line" ];
  let report = D.report_to_json [ ("k1", None, d); ("k2", None, D.hintf ~code:"YS105" "pointwise") ] in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("report has " ^ frag) true
        (Astring_contains.contains report frag))
    [ "\"version\":1";
      "\"findings\":[";
      "\"origin\":\"k1\"";
      "\"origin\":\"k2\"";
      "\"summary\":{\"errors\":1,\"warnings\":0,\"hints\":1}" ];
  (* The empty report is still a valid document. *)
  Alcotest.(check bool) "empty report valid" true
    (Astring_contains.contains (D.report_to_json [])
       "\"summary\":{\"errors\":0,\"warnings\":0,\"hints\":0}")

let suite =
  [ Alcotest.test_case "YS400 stagger" `Quick test_ys400_stagger;
    Alcotest.test_case "YS401 single field" `Quick test_ys401_single_field;
    Alcotest.test_case "YS403 aliasing" `Quick test_ys403_alias;
    Alcotest.test_case "YS404 halo" `Quick test_ys404_halo;
    Alcotest.test_case "YS405 layout" `Quick test_ys405_layout;
    Alcotest.test_case "YS406 partition" `Quick test_ys406_partition;
    Alcotest.test_case "YS408 fold overflow" `Quick test_ys408_fold_overflow;
    Alcotest.test_case "YS409 rank/extents" `Quick test_ys409_rank;
    Alcotest.test_case "corpus: stagger skew" `Quick corpus_stagger_skew;
    Alcotest.test_case "corpus: stagger same-front" `Quick
      corpus_stagger_same_front;
    Alcotest.test_case "corpus: stagger 3D" `Quick corpus_stagger_3d;
    Alcotest.test_case "corpus: aliased sweep" `Quick corpus_aliased_sweep;
    Alcotest.test_case "corpus: aliased wavefront" `Quick
      corpus_aliased_wavefront;
    Alcotest.test_case "corpus: partition gap" `Quick corpus_partition_gap;
    Alcotest.test_case "corpus: partition overlap" `Quick
      corpus_partition_overlap;
    Alcotest.test_case "corpus: region OOB" `Quick corpus_region_oob;
    Alcotest.test_case "corpus: thin halo" `Quick corpus_thin_halo;
    Alcotest.test_case "corpus: fold mismatch" `Quick corpus_fold_mismatch;
    Alcotest.test_case "corpus: upwind anti-dependence" `Quick
      corpus_upwind_anti;
    qt verdicts_agree;
    qt sanitizer_is_transparent;
    Alcotest.test_case "self-lint: suite x machines x spaces" `Quick
      test_selflint_spaces;
    Alcotest.test_case "legal space runs trap-free" `Quick
      test_legal_space_zero_traps;
    Alcotest.test_case "tuner prunes illegal candidates" `Quick
      test_tuner_prunes;
    Alcotest.test_case "advisor filter" `Quick test_advisor_filter;
    Alcotest.test_case "engine gates" `Quick test_engine_gates;
    Alcotest.test_case "JSON report schema" `Quick test_json_schema ]
