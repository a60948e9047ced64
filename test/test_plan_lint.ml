(* The plan-IR dataflow verifier (YS5xx) and the certification layer.

   Three contracts under test:

   1. Per-rule behaviour of [Lint.Plan] on hand-built adversarial plans
      (the plan constructor accepts arbitrary bodies, so every rule can
      be driven directly) and cleanliness on the whole suite.

   2. The adversarial corpus: every statically rejected plan also
      misbehaves dynamically — a bounds escape (YS501) traps YS453 when
      its accesses are replayed against the shadow allocation, and no
      rejected plan ever earns a certificate (no false "safe"
      verdicts). Conversely every certified suite plan runs sanitized
      to completion with zero traps.

   3. The certified fast path is *pure optimisation*: sweeps and
      wavefronts with a certificate are bit-identical (outputs and
      stats) to the fully checked path, across random stencils, ranks,
      layouts and blocking. *)

module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Suite = Yasksite_stencil.Suite
module Gen = Yasksite_stencil.Gen
module Dsl = Yasksite_stencil.Dsl
module Expr = Yasksite_stencil.Expr
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Sanitizer = Yasksite_engine.Sanitizer
module Cert = Yasksite_engine.Cert
module Certify = Yasksite_engine.Certify
module Measure = Yasksite_engine.Measure
module PL = Yasksite_lint.Plan_lint
module D = Yasksite_lint.Diagnostic
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let has code ds = List.exists (fun (d : D.t) -> d.D.code = code) ds

let make_grid ?(layout = Grid.Linear) ~halo ~dims seed =
  let rng = Prng.create ~seed in
  let g = Grid.create ~halo ~layout ~dims () in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.25;
  g

(* Dividing by 1.0 is exact for every float and puts a division at the
   root of the body. *)
let with_division spec =
  Spec.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields
    Dsl.(spec.Spec.expr /: c 1.0)

let acc ?(field = 0) offsets = { Expr.field; offsets }

(* A syntactically minimal healthy 1D plan to mutate from: one access,
   identity body. *)
let mk_plan ?(name = "adv") ?(rank = 1) ?(n_fields = 1)
    ?(accesses = [| acc [| 0 |] |]) code ~depth =
  Plan.v ~name ~rank ~n_fields ~accesses ~code ~depth

(* ------------------------------------------------------------------ *)
(* Rule-by-rule units on hand-built plans.                             *)

let test_suite_plans_clean () =
  List.iter
    (fun s ->
      let spec = Suite.resolve_defaults s in
      let info = Analysis.of_spec spec in
      let halo = Analysis.halo info in
      let dims = Array.make spec.Spec.rank 8 in
      let inputs =
        Array.init spec.Spec.n_fields (fun i ->
            make_grid ~halo ~dims (100 + i))
      in
      let output = Grid.create ~halo ~dims () in
      let plan = Lower.lower spec in
      Alcotest.(check (list string))
        (spec.Spec.name ^ " verifies clean")
        []
        (List.map (fun (d : D.t) -> d.D.code)
           (PL.check ~info plan ~inputs ~output)))
    Suite.all

let test_ys500_dangling_slot () =
  let p = mk_plan [| Plan.Load 0; Plan.Load 5; Plan.Add |] ~depth:2 in
  let ds = PL.structure p in
  Alcotest.(check bool) "slot outside the table" true (has "YS500" ds);
  Alcotest.(check bool) "is an error" true (D.has_errors ds);
  let p = mk_plan [| Plan.Load 3 |] ~depth:1 in
  Alcotest.(check bool) "lone load outside the table" true
    (has "YS500" (PL.structure p))

let test_ys500_bad_field_and_rank () =
  let p =
    mk_plan ~accesses:[| acc ~field:3 [| 0 |] |] [| Plan.Load 0 |] ~depth:1
  in
  Alcotest.(check bool) "field outside the declared range" true
    (has "YS500" (PL.structure p));
  let p = mk_plan ~accesses:[| acc [| 0; 0 |] |] [| Plan.Load 0 |] ~depth:1 in
  Alcotest.(check bool) "offset arity differs from the plan rank" true
    (has "YS500" (PL.structure p))

let test_ys502_underflow_and_depth () =
  let p = mk_plan [| Plan.Add |] ~depth:0 in
  Alcotest.(check bool) "underflow" true (has "YS502" (PL.structure p));
  let code = [| Plan.Load 0; Plan.Push 2.0; Plan.Add |] in
  let p = mk_plan code ~depth:5 in
  Alcotest.(check bool) "declared depth differs from measured" true
    (has "YS502" (PL.structure p));
  Alcotest.(check (option int)) "measured depth" (Some 2)
    (PL.measured_depth code)

let test_ys503_dead_load () =
  let p =
    mk_plan
      ~accesses:[| acc [| 0 |]; acc [| 1 |] |]
      [| Plan.Load 0 |] ~depth:1
  in
  let ds = PL.structure p in
  Alcotest.(check bool) "dead load reported" true (has "YS503" ds);
  Alcotest.(check bool) "dead load is a warning, not an error" false
    (D.has_errors ds)

let test_ys504_duplicate_slots () =
  let p =
    mk_plan
      ~accesses:[| acc [| 1 |]; acc [| 1 |] |]
      [| Plan.Load 0; Plan.Load 1; Plan.Add |] ~depth:2
  in
  Alcotest.(check bool) "duplicate table entries" true
    (has "YS504" (PL.structure p))

let test_ys505_no_result () =
  let p = mk_plan [||] ~depth:0 in
  Alcotest.(check bool) "empty body" true
    (has "YS505" (PL.structure p));
  let p = mk_plan [| Plan.Load 0; Plan.Push 1.0 |] ~depth:2 in
  Alcotest.(check bool) "two values left on the stack" true
    (has "YS505" (PL.structure p))

let test_ys506_unresolved_sym () =
  let spec = Spec.v ~name:"sym" ~rank:1 Dsl.(p "r" *: fld [ 0 ]) in
  Alcotest.(check bool) "lowered symbolic plan flagged" true
    (has "YS506" (PL.structure (Lower.lower spec)))

let test_ys507_div_by_zero () =
  let code = [| Plan.Load 0; Plan.Push 0.0; Plan.Div |] in
  let p = mk_plan code ~depth:2 in
  let ds = PL.structure p in
  Alcotest.(check bool) "provable zero divisor" true (has "YS507" ds);
  Alcotest.(check bool) "is an error" true (D.has_errors ds)

let test_ys508_zero_arithmetic () =
  let code = [| Plan.Push 0.0; Plan.Load 0; Plan.Mul |] in
  let p = mk_plan code ~depth:2 in
  Alcotest.(check bool) "zero multiply flagged" true
    (has "YS508" (PL.structure p))

let wide1 = Spec.v ~name:"wide1" ~rank:1 Dsl.(fld [ -2 ] +: fld [ 2 ])

let test_ys501_bounds () =
  let plan = Lower.lower wide1 in
  let thin = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 1 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  let ds = PL.bounds plan ~inputs:[| thin |] ~output:o in
  Alcotest.(check bool) "radius-2 access escapes a halo-1 allocation" true
    (has "YS501" ds && D.has_errors ds);
  let ok = make_grid ~halo:[| 2 |] ~dims:[| 8 |] 2 in
  let o2 = Grid.create ~halo:[| 2 |] ~dims:[| 8 |] () in
  Alcotest.(check int) "halo-2 allocation is safe" 0
    (List.length (PL.bounds plan ~inputs:[| ok |] ~output:o2));
  Alcotest.(check bool) "field-count mismatch" true
    (has "YS501" (PL.bounds plan ~inputs:[||] ~output:o))

let test_ys510_counts_disagree () =
  let heat1 =
    Spec.v ~name:"heat1" ~rank:1
      Dsl.(
        c 0.25 *: fld [ -1 ] +: (c 0.5 *: fld [ 0 ]) +: (c 0.25 *: fld [ 1 ]))
  in
  let info = Analysis.of_spec heat1 in
  (* A plan for a different kernel, judged against heat1's analysis:
     access set and load count both diverge. *)
  let ds = PL.counts_agree (Lower.lower wide1) info in
  Alcotest.(check bool) "foreign plan's counts disagree" true
    (has "YS510" ds && D.has_errors ds);
  Alcotest.(check int) "own plan agrees" 0
    (List.length (PL.counts_agree (Lower.lower heat1) info))

(* ------------------------------------------------------------------ *)
(* Satellite: the declared depth equals the interpreter-measured
   maximum for random plans.                                           *)

let depth_matches_interpreter =
  QCheck.Test.make ~name:"Program.depth equals measured stack maximum"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:3 in
      let plan = Lower.lower (with_division (Gen.spec rng ~rank ())) in
      PL.measured_depth plan.Plan.code = Some plan.Plan.depth)

(* ------------------------------------------------------------------ *)
(* Certificate store.                                                  *)

let cfg_grids ?(halo = [| 1 |]) ?(dims = [| 12 |]) seed =
  let a = make_grid ~halo ~dims seed in
  let o = Grid.create ~halo ~dims () in
  (a, o)

let test_cert_key_extent_independent () =
  let spec = Suite.resolve_defaults Suite.heat_1d_3pt in
  let plan = Lower.lower spec in
  let key ~dims ~config =
    let a, o = cfg_grids ~dims 3 in
    Cert.key ~plan ~inputs:[| a |] ~output:o ~config
  in
  let k = key ~dims:[| 12 |] ~config:Config.default in
  Alcotest.(check string) "key is deterministic" k
    (key ~dims:[| 12 |] ~config:Config.default);
  Alcotest.(check string) "key ignores grid extents" k
    (key ~dims:[| 48 |] ~config:Config.default);
  Alcotest.(check bool) "key depends on blocking" false
    (k = key ~dims:[| 12 |] ~config:(Config.v ~block:[| 0; 4 |] ()));
  let a, o = cfg_grids ~halo:[| 2 |] 4 in
  Alcotest.(check bool) "key depends on the halo" false
    (k = Cert.key ~plan ~inputs:[| a |] ~output:o ~config:Config.default)

let test_cert_store_roundtrip () =
  if Cert.enabled () then begin
    Cert.clear ();
    let e =
      { Cert.key = "k1";
        fingerprint = "fp";
        loads_per_point = 3;
        stores_per_point = 1;
        flops_per_point = 5 }
    in
    Alcotest.(check bool) "miss before insert" false (Cert.mem "k1");
    Cert.insert e;
    Alcotest.(check bool) "hit after insert" true (Cert.mem "k1");
    Alcotest.(check int) "size" 1 (Cert.size ());
    (match Cert.lookup "k1" with
    | Some e' -> Alcotest.(check int) "payload survives" 3 e'.Cert.loads_per_point
    | None -> Alcotest.fail "lookup lost the entry");
    Cert.record_fast_path ();
    Alcotest.(check int) "fast-path counter" 1 (Cert.fast_path_hits ());
    Cert.clear ();
    Alcotest.(check int) "clear empties the store" 0 (Cert.size ());
    Alcotest.(check int) "clear resets the counter" 0 (Cert.fast_path_hits ())
  end

let test_cert_disabled_by_env () =
  let saved = Sys.getenv_opt "YASKSITE_NO_CERT" in
  let restore () =
    Unix.putenv "YASKSITE_NO_CERT" (Option.value saved ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "YASKSITE_NO_CERT" "1";
      Alcotest.(check bool) "store disabled" false (Cert.enabled ());
      Cert.insert
        { Cert.key = "k-disabled";
          fingerprint = "fp";
          loads_per_point = 1;
          stores_per_point = 1;
          flops_per_point = 1 };
      Alcotest.(check bool) "inserts drop" false (Cert.mem "k-disabled");
      Unix.putenv "YASKSITE_NO_CERT" "0";
      Alcotest.(check bool) "\"0\" means enabled" true (Cert.enabled ()))

(* ------------------------------------------------------------------ *)
(* Certification pipeline.                                             *)

let test_certify_suite () =
  List.iter
    (fun s ->
      let spec = Suite.resolve_defaults s in
      let info = Analysis.of_spec spec in
      let halo = Analysis.halo info in
      let dims = Array.make spec.Spec.rank 8 in
      let inputs =
        Array.init spec.Spec.n_fields (fun i ->
            make_grid ~halo ~dims (200 + i))
      in
      let output = Grid.create ~halo ~dims () in
      match Certify.certify spec ~inputs ~output ~config:Config.default with
      | Ok e ->
          Alcotest.(check string)
            (spec.Spec.name ^ " certificate names the plan")
            (Lower.fingerprint spec) e.Cert.fingerprint;
          if Cert.enabled () then
            Alcotest.(check bool)
              (spec.Spec.name ^ " certificate stored")
              true (Cert.mem e.Cert.key)
      | Error ds ->
          Alcotest.failf "%s failed certification: %s" spec.Spec.name
            (D.summary ds))
    Suite.all

let test_validate_traffic_agrees () =
  let spec = Suite.resolve_defaults Suite.heat_2d_5pt in
  Alcotest.(check int) "traced proxy traffic matches certified counts" 0
    (List.length
       (Certify.validate_traffic spec ~plan:(Lower.lower spec)
          ~config:Config.default))

(* ------------------------------------------------------------------ *)
(* Adversarial corpus: static YS5xx verdicts agree with the dynamic
   outcome.                                                            *)

(* Replay a plan's access table at one interior point through a
   sanitizer slice: the dynamic counterpart of the YS501 bounds proof
   (an escaping access must trap YS453 before any unchecked read). *)
let replay_accesses plan ~inputs ~output =
  let san = Sanitizer.create () in
  Array.iter (Sanitizer.register san) inputs;
  Sanitizer.register san output;
  let pass = Sanitizer.begin_sweep san ~inputs ~output in
  let sl = Sanitizer.slice pass 0 in
  Array.iter
    (fun (a : Expr.access) ->
      Sanitizer.reader sl inputs.(a.Expr.field) a.Expr.offsets)
    plan.Plan.accesses

let trap_code f =
  try
    ignore (f ());
    None
  with Sanitizer.Trap t -> Some (Sanitizer.code_of_kind t.Sanitizer.kind)

(* Statically rejected AND dynamically trapping: a YS501 bounds escape
   replayed against the shadow allocation. *)
let corpus_bounds_escape name spec ~halo ~dims =
  let plan = Lower.lower spec in
  let inputs =
    Array.init spec.Spec.n_fields (fun i -> make_grid ~halo ~dims (300 + i))
  in
  let output = Grid.create ~halo ~dims () in
  let static = PL.bounds plan ~inputs ~output in
  Alcotest.(check bool)
    (name ^ " statically rejected with YS501")
    true
    (has "YS501" static && D.has_errors static);
  Alcotest.(check (option string)) (name ^ " replay traps YS453")
    (Some "YS453") (trap_code (fun () -> replay_accesses plan ~inputs ~output))

let corpus_wide_star_1d () =
  corpus_bounds_escape "radius-2 star on halo-1 grids" wide1 ~halo:[| 1 |]
    ~dims:[| 10 |]

let corpus_long_star_3d () =
  let spec = Suite.resolve_defaults Suite.star_3d_r2 in
  corpus_bounds_escape "3D radius-2 star on halo-1 grids" spec
    ~halo:[| 1; 1; 1 |] ~dims:[| 6; 6; 6 |]

(* Statically rejected plans must never earn a certificate, whatever
   the dynamic path would do (no false "safe" verdicts). *)
let corpus_rejected_never_certified () =
  let spec = Suite.resolve_defaults Suite.copy_1d in
  let a, o = cfg_grids 5 in
  let bad_plans =
    [ ("dangling slot", mk_plan [| Plan.Load 7 |] ~depth:1);
      ("stack underflow", mk_plan [| Plan.Mul |] ~depth:0);
      ( "zero divide",
        mk_plan [| Plan.Load 0; Plan.Push 0.0; Plan.Div |] ~depth:2 );
      ("wrong depth", mk_plan [| Plan.Load 0; Plan.Neg |] ~depth:9) ]
  in
  List.iter
    (fun (name, plan) ->
      (match
         Certify.certify ~plan spec ~inputs:[| a |] ~output:o
           ~config:Config.default
       with
      | Ok _ -> Alcotest.failf "%s earned a certificate" name
      | Error ds ->
          Alcotest.(check bool) (name ^ " rejection carries errors") true
            (D.has_errors ds));
      Alcotest.(check bool) (name ^ " not in the store") false
        (Cert.mem
           (Cert.key ~plan ~inputs:[| a |] ~output:o ~config:Config.default)))
    bad_plans

(* The positive half: every certified suite plan runs a sanitized,
   gate-checked sweep to completion on the fast path — zero traps. *)
let corpus_certified_never_traps () =
  if Cert.enabled () then begin
    Cert.clear ();
    List.iter
      (fun s ->
        let spec = Suite.resolve_defaults s in
        let info = Analysis.of_spec spec in
        let halo = Analysis.halo info in
        let dims = Array.make spec.Spec.rank 8 in
        let inputs =
          Array.init spec.Spec.n_fields (fun i ->
              make_grid ~halo ~dims (400 + i))
        in
        let output = Grid.create ~halo ~dims () in
        Alcotest.(check bool)
          (spec.Spec.name ^ " certifies")
          true
          (Certify.ensure spec ~inputs ~output ~config:Config.default);
        let before = Cert.fast_path_hits () in
        let san = Sanitizer.create () in
        (* Fail-fast sanitizer: any trap raises and fails the test. *)
        ignore
          (Sweep.run ~sanitize:san spec ~inputs ~output : Sweep.stats);
        Alcotest.(check int)
          (spec.Spec.name ^ " ran the certified fast path")
          (before + 1) (Cert.fast_path_hits ()))
      Suite.all
  end

(* ------------------------------------------------------------------ *)
(* The fast path is pure optimisation: certified and checked sanitized
   sweeps are bit-identical across random stencils, ranks, layouts and
   blocking.                                                           *)

let certified_sweep_matches_checked ~seed =
  if not (Cert.enabled ()) then true
  else begin
    let rng = Prng.create ~seed in
    let rank = 1 + Prng.int rng ~bound:3 in
    let spec = Gen.spec rng ~rank () in
    let info = Analysis.of_spec spec in
    let halo = Analysis.halo info in
    let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:10) in
    let layout =
      if Prng.int rng ~bound:2 = 0 then Grid.Linear
      else begin
        let f = Array.make rank 1 in
        f.(rank - 1) <- 2;
        if rank > 1 then f.(rank - 2) <- 2;
        Grid.Folded f
      end
    in
    let cfg =
      let fold = match layout with Grid.Folded f -> Some f | _ -> None in
      let block =
        if Prng.int rng ~bound:2 = 0 then begin
          let b = Array.map (fun d -> 1 + Prng.int rng ~bound:d) dims in
          b.(0) <- 0;
          Some b
        end
        else None
      in
      Config.v ?fold ?block ()
    in
    let run ~certified =
      Cert.clear ();
      let a = make_grid ~layout ~halo ~dims (seed + 1000) in
      let o = Grid.create ~halo ~layout ~dims () in
      if certified then
        ignore
          (Certify.ensure spec ~inputs:[| a |] ~output:o ~config:cfg : bool);
      let san = Sanitizer.create () in
      let s = Sweep.run ~sanitize:san ~config:cfg spec ~inputs:[| a |] ~output:o in
      (o, s, Cert.fast_path_hits ())
    in
    let o_checked, s_checked, h_checked = run ~certified:false in
    let o_fast, s_fast, h_fast = run ~certified:true in
    Grid.max_abs_diff o_checked o_fast = 0.0
    && s_checked = s_fast && h_checked = 0 && h_fast = 1
  end

let certified_sweep_parity =
  QCheck.Test.make ~name:"certified fast path bit-reproduces checked sweeps"
    ~count:60 QCheck.small_int (fun seed ->
      certified_sweep_matches_checked ~seed)

let certified_wavefront_matches_checked ~seed =
  if not (Cert.enabled ()) then true
  else begin
    let rng = Prng.create ~seed in
    let rank = 1 + Prng.int rng ~bound:3 in
    let spec = Gen.spec rng ~rank () in
    let info = Analysis.of_spec spec in
    let halo = Analysis.halo info in
    let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
    let steps = 1 + Prng.int rng ~bound:3 in
    let wf = 2 + Prng.int rng ~bound:2 in
    let stagger = halo.(0) + 1 + Prng.int rng ~bound:2 in
    let cfg = Config.v ~wavefront:wf ~wavefront_stagger:stagger () in
    let run ~certified =
      Cert.clear ();
      let a = make_grid ~halo ~dims (seed + 1) in
      let b = make_grid ~halo ~dims (seed + 2) in
      if certified then
        ignore
          (Certify.ensure spec ~inputs:[| a |] ~output:b ~config:cfg : bool);
      let san = Sanitizer.create () in
      let final, stats =
        Wavefront.steps ~sanitize:san ~config:cfg spec ~a ~b ~steps
      in
      (final, stats, Cert.fast_path_hits ())
    in
    let f_checked, s_checked, h_checked = run ~certified:false in
    let f_fast, s_fast, h_fast = run ~certified:true in
    Grid.max_abs_diff f_checked f_fast = 0.0
    && s_checked = s_fast && h_checked = 0 && h_fast = 1
  end

let certified_wavefront_parity =
  QCheck.Test.make
    ~name:"certified fast path bit-reproduces checked wavefronts" ~count:40
    QCheck.small_int (fun seed -> certified_wavefront_matches_checked ~seed)

(* ------------------------------------------------------------------ *)
(* Fast-path gating and integration.                                   *)

let test_uncertified_keeps_checked_path () =
  if Cert.enabled () then begin
    Cert.clear ();
    let spec = Suite.resolve_defaults Suite.heat_1d_3pt in
    let a, o = cfg_grids 6 in
    let san = Sanitizer.create () in
    ignore (Sweep.run ~sanitize:san spec ~inputs:[| a |] ~output:o);
    Alcotest.(check int) "no certificate, no fast path" 0
      (Cert.fast_path_hits ())
  end

(* check:false must never engage the fast path even with a certificate:
   the YS4xx gate is part of what the certificate assumes. The aliased
   in-place sweep still traps. *)
let test_check_false_never_fast () =
  if Cert.enabled () then begin
    Cert.clear ();
    let spec = Suite.resolve_defaults Suite.heat_1d_3pt in
    let g = make_grid ~halo:[| 1 |] ~dims:[| 12 |] 7 in
    let a, o = cfg_grids 8 in
    Alcotest.(check bool) "certified" true
      (Certify.ensure spec ~inputs:[| a |] ~output:o ~config:Config.default);
    let san = Sanitizer.create () in
    Alcotest.(check (option string)) "aliased sweep still traps"
      (Some "YS452")
      (trap_code (fun () ->
           Sweep.run ~check:false ~sanitize:san spec ~inputs:[| g |]
             ~output:g))
  end

let test_measure_autocertifies () =
  if Cert.enabled () then begin
    Cert.clear ();
    let spec = Suite.resolve_defaults Suite.heat_1d_3pt in
    let r =
      Measure.stencil_sweep ~sanitize:true Machine.test_chip spec
        ~dims:[| 48 |] ~config:Config.default
    in
    Alcotest.(check bool) "measurement is sane" true (r.Measure.lups_chip > 0.0);
    Alcotest.(check bool) "measurement earned a certificate" true
      (Cert.size () > 0);
    Alcotest.(check bool) "measured sweeps ran the fast path" true
      (Cert.fast_path_hits () > 0)
  end

(* ------------------------------------------------------------------ *)
(* Satellite: backend-name validation.                                 *)

let test_backend_of_string () =
  Alcotest.(check bool) "plan parses" true
    (Sweep.backend_of_string "plan" = Ok Sweep.Plan_backend);
  Alcotest.(check bool) "case and whitespace tolerated" true
    (Sweep.backend_of_string " Codegen " = Ok Sweep.Codegen_backend);
  match Sweep.backend_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus backend accepted"
  | Error msg ->
      let contains s = Astring_contains.contains msg s in
      Alcotest.(check bool) "error lists the legal backends" true
        (contains "plan" && contains "codegen" && contains "bogus")

let suite =
  [ Alcotest.test_case "suite plans verify clean" `Quick
      test_suite_plans_clean;
    Alcotest.test_case "YS500 dangling slot" `Quick test_ys500_dangling_slot;
    Alcotest.test_case "YS500 bad field / offset arity" `Quick
      test_ys500_bad_field_and_rank;
    Alcotest.test_case "YS502 underflow and declared depth" `Quick
      test_ys502_underflow_and_depth;
    Alcotest.test_case "YS503 dead load is a warning" `Quick
      test_ys503_dead_load;
    Alcotest.test_case "YS504 duplicate slots" `Quick
      test_ys504_duplicate_slots;
    Alcotest.test_case "YS505 missing or surplus result" `Quick
      test_ys505_no_result;
    Alcotest.test_case "YS506 unresolved coefficient" `Quick
      test_ys506_unresolved_sym;
    Alcotest.test_case "YS507 division by provable zero" `Quick
      test_ys507_div_by_zero;
    Alcotest.test_case "YS508 provably-zero arithmetic" `Quick
      test_ys508_zero_arithmetic;
    Alcotest.test_case "YS501 bounds proof" `Quick test_ys501_bounds;
    Alcotest.test_case "YS510 counts cross-validation" `Quick
      test_ys510_counts_disagree;
    qt depth_matches_interpreter;
    Alcotest.test_case "certificate keys: stable, extent-independent" `Quick
      test_cert_key_extent_independent;
    Alcotest.test_case "certificate store roundtrip" `Quick
      test_cert_store_roundtrip;
    Alcotest.test_case "YASKSITE_NO_CERT disables the store" `Quick
      test_cert_disabled_by_env;
    Alcotest.test_case "whole suite certifies (YS511 included)" `Quick
      test_certify_suite;
    Alcotest.test_case "traced traffic agrees with certified counts" `Quick
      test_validate_traffic_agrees;
    Alcotest.test_case "corpus: 1D bounds escape (YS501/YS453)" `Quick
      corpus_wide_star_1d;
    Alcotest.test_case "corpus: 3D bounds escape (YS501/YS453)" `Quick
      corpus_long_star_3d;
    Alcotest.test_case "corpus: rejected plans never certified" `Quick
      corpus_rejected_never_certified;
    Alcotest.test_case "corpus: certified suite never traps" `Quick
      corpus_certified_never_traps;
    qt certified_sweep_parity;
    qt certified_wavefront_parity;
    Alcotest.test_case "no certificate keeps the checked path" `Quick
      test_uncertified_keeps_checked_path;
    Alcotest.test_case "check:false never takes the fast path" `Quick
      test_check_false_never_fast;
    Alcotest.test_case "sanitized measurements auto-certify" `Quick
      test_measure_autocertifies;
    Alcotest.test_case "backend names validate eagerly" `Quick
      test_backend_of_string ]
