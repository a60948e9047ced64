(* The kernel-plan IR and the plan execution backend.

   The contract under test: lowering a resolved stencil to a flat plan
   and sweeping it with the plan driver is *bit-identical* to the
   tree-walking {!Oracle}, across ranks, layouts, blocking, wavefronts
   and bodies with and without division. Plus the satellite coverage:
   the [Lower.check] error paths on both backends, and the fingerprint
   contract that keys the ECM cache and tuner checkpoints. *)

module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Hierarchy = Yasksite_cachesim.Hierarchy
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Suite = Yasksite_stencil.Suite
module Gen = Yasksite_stencil.Gen
module Dsl = Yasksite_stencil.Dsl
module Expr = Yasksite_stencil.Expr
module Program = Yasksite_stencil.Program
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Sanitizer = Yasksite_engine.Sanitizer
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

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

(* One sweep of a random stencil on the plan backend: the output must
   be bit-identical to the oracle's and every interior point counted.
   Exercised over ranks 1..3, with and without division, folded layouts and
   spatial blocking; [long_rows] makes the last extent 65..204, so rows
   (and row blocks) span several of the interpreter's 64-point
   chunks. *)
let sweep_matches_oracle ?(long_rows = false) ~seed () =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank in
  let spec = if Prng.int rng ~bound:2 = 0 then with_division spec else spec in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims =
    Array.init rank (fun i ->
        if long_rows && i = rank - 1 then 65 + Prng.int rng ~bound:140
        else 6 + Prng.int rng ~bound:10)
  in
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
  let a = make_grid ~layout ~halo ~dims (seed + 1000) in
  let o_plan = Grid.create ~halo ~layout ~dims () in
  let s =
    Sweep.run ~backend:Sweep.Plan_backend ~config:cfg spec ~inputs:[| a |]
      ~output:o_plan
  in
  let o_ref = Grid.create ~halo ~layout ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:o_ref;
  Grid.max_abs_diff o_plan o_ref = 0.0
  && s.Sweep.points = Array.fold_left ( * ) 1 dims

let plan_backend_matches_oracle =
  QCheck.Test.make ~name:"plan backend bit-reproduces the oracle"
    ~count:120 QCheck.small_int (fun seed -> sweep_matches_oracle ~seed ())

let long_rows_match_oracle =
  QCheck.Test.make ~name:"rows longer than a chunk bit-reproduce the oracle"
    ~count:30 QCheck.small_int (fun seed ->
      sweep_matches_oracle ~long_rows:true ~seed ())

(* The same contract through the temporal-blocking path, against the
   oracle's plain ping-pong sweeps: random wavefront depth and (legal)
   stagger, per-direction plan reuse. *)
let wavefront_matches_oracle ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank in
  let spec = if Prng.int rng ~bound:2 = 0 then with_division spec else spec in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let steps = 1 + Prng.int rng ~bound:4 in
  let wf = 2 + Prng.int rng ~bound:3 in
  let stagger = halo.(0) + 1 + Prng.int rng ~bound:2 in
  let cfg = Config.v ~wavefront:wf ~wavefront_stagger:stagger () in
  let a () = make_grid ~halo ~dims (seed + 1)
  and b () = make_grid ~halo ~dims (seed + 2) in
  let final, _ =
    Sweep.set_default_backend Sweep.Plan_backend;
    Fun.protect ~finally:Sweep.clear_default_backend @@ fun () ->
    Wavefront.steps ~config:cfg spec ~a:(a ()) ~b:(b ()) ~steps
  in
  Grid.max_abs_diff final (Oracle.steps spec ~a:(a ()) ~b:(b ()) ~steps)
  = 0.0

let wavefront_backend_parity =
  QCheck.Test.make ~name:"wavefront agrees across backends" ~count:60
    QCheck.small_int (fun seed -> wavefront_matches_oracle ~seed)

(* Tracing must not perturb results (addresses route through the
   plan's access table). *)
let traced_matches_oracle ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let a = make_grid ~halo ~dims (seed + 7) in
  let o = Grid.create ~halo ~dims () in
  let trace = Hierarchy.create Machine.test_chip in
  let _ =
    Sweep.run ~backend:Sweep.Plan_backend ~trace spec ~inputs:[| a |]
      ~output:o
  in
  let o_ref = Grid.create ~halo ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:o_ref;
  Grid.max_abs_diff o o_ref = 0.0

let traced_backend_parity =
  QCheck.Test.make ~name:"traced sweep agrees across backends" ~count:40
    QCheck.small_int (fun seed -> traced_matches_oracle ~seed)

(* ------------------------------------------------------------------ *)
(* Plan structure and fingerprints.                                    *)

let heat2 = Suite.resolve_defaults Suite.heat_2d_5pt

(* The body is the folded tree as postfix code, in the tree's own
   order: [r *. (((w +. e) +. s) +. n) +. c *. u]. *)
let test_postfix_in_tree_order () =
  let plan = Lower.lower heat2 in
  Alcotest.(check bool) "resolved" true (Plan.resolved plan);
  let info = Analysis.of_spec heat2 in
  Alcotest.(check int) "one slot per distinct access"
    (List.length info.Analysis.accesses)
    (Plan.n_slots plan);
  let slot offsets =
    let rec find i =
      if plan.Plan.accesses.(i) = { Expr.field = 0; offsets } then i
      else find (i + 1)
    in
    Plan.Load (find 0)
  in
  Alcotest.(check bool) "code replays the tree" true
    (plan.Plan.code
    = [| Plan.Push 0.1; slot [| -1; 0 |]; slot [| 1; 0 |]; Plan.Add;
         slot [| 0; -1 |]; Plan.Add; slot [| 0; 1 |]; Plan.Add; Plan.Mul;
         Plan.Push 0.4; slot [| 0; 0 |]; Plan.Mul; Plan.Add |]);
  Alcotest.(check int) "depth" 3 plan.Plan.depth

(* Every sum and scale shape must keep the tree's operations: a constant
   term, a difference, a scaled sum with a [c *. v] term, a constant and
   a difference inside, and a scaled sum led by a negation subtracted
   at the end. Rows of 200 points span four chunks; the folded layout
   loads through the offset table. *)
let test_sum_and_scale_shapes () =
  let spec =
    Spec.v ~name:"sum-and-scale-shapes" ~rank:2
      Dsl.(
        c 0.3 -: fld [ 0; -1 ]
        +: (c 1.5 *: fld [ 0; 0 ])
        +: (c 0.25
           *: (fld [ 0; 1 ] -: fld [ -1; 0 ] +: c 0.125
              +: (c 3.0 *: fld [ 1; 1 ])))
        -: (c 0.5 *: (neg (fld [ 1; 0 ]) +: (c 2.0 *: fld [ 0; -1 ]))))
  in
  let halo = [| 1; 1 |] and dims = [| 4; 200 |] in
  List.iter
    (fun layout ->
      let a = make_grid ~layout ~halo ~dims 41 in
      let o = Grid.create ~halo ~layout ~dims () in
      ignore
        (Sweep.run ~backend:Sweep.Plan_backend spec ~inputs:[| a |] ~output:o
          : Sweep.stats);
      let expected = Grid.create ~halo ~layout ~dims () in
      Oracle.sweep spec ~inputs:[| a |] ~output:expected;
      Alcotest.(check (float 0.0))
        (match layout with Grid.Linear -> "linear" | Grid.Folded _ -> "folded")
        0.0
        (Grid.max_abs_diff o expected))
    [ Grid.Linear; Grid.Folded [| 2; 2 |] ]

let test_fingerprint_ignores_name () =
  let e = Dsl.(c 0.5 *: (fld [ -1 ] +: fld [ 1 ])) in
  let a = Spec.v ~name:"a" ~rank:1 e in
  let b = Spec.v ~name:"b" ~rank:1 e in
  Alcotest.(check string) "same kernel, same digest" (Lower.fingerprint a)
    (Lower.fingerprint b);
  let c' = Spec.v ~name:"a" ~rank:1 Dsl.(c 0.25 *: (fld [ -1 ] +: fld [ 1 ])) in
  Alcotest.(check bool) "coefficient changes the digest" false
    (Lower.fingerprint a = Lower.fingerprint c')

let test_fingerprint_matches_plan () =
  let spec = heat2 in
  let plan = Lower.lower spec in
  Alcotest.(check string) "Lower.fingerprint = plan.fingerprint"
    plan.Plan.fingerprint (Lower.fingerprint spec);
  Alcotest.(check bool) "digest is hex of fixed width" true
    (String.length plan.Plan.fingerprint = 32)

(* The fingerprint rendering is a persisted format: these digests key
   ECM, kernel, certificate, checkpoint and Offsite store entries, so a
   change to them cold-starts every store and has to be deliberate. *)
let test_fingerprint_format_pinned () =
  let stage_fp prog name =
    match Program.find_stage prog name with
    | Some st -> Lower.fingerprint (Program.stage_spec prog st)
    | None -> Alcotest.failf "no stage %s" name
  in
  Alcotest.(check string) "varcoef-3d-7pt" "deb05a6e2e68019efa80d033c686a632"
    (Lower.fingerprint (Suite.resolve_defaults Suite.varcoef_3d_7pt));
  Alcotest.(check string) "hdiff ufli, unfused"
    "d05744c09f9852422e9a09f69cf6069f"
    (stage_fp (Program.fuse Suite.hdiff ~inline:[]) "ufli");
  Alcotest.(check string) "hdiff uout, all fused"
    "42bb7659ab78326f30575291351a90ae"
    (stage_fp
       (Program.fuse Suite.hdiff ~inline:(Program.inlinable Suite.hdiff))
       "uout")

(* One kernel that reaches every token of the rendering: a symbolic
   coefficient, negative offsets, a non-integer and a negative constant,
   and every operator. The resolved variant swaps the symbol for a
   constant, so a [Push] renders where the [Sym] did. *)
let test_fingerprint_every_token_pinned () =
  let r field offsets = Expr.Ref { field; offsets } in
  let kernel coeff =
    Spec.v ~name:"every-token" ~rank:3 ~n_fields:2
      Expr.(
        Select
          ( Sub (r 0 [| 0; -1; 2 |], Const 0.1),
            Neg (Min (r 1 [| -3; 0; 0 |], coeff)),
            Max
              ( Div (r 0 [| 0; 0; 0 |], Const 3.25),
                Add (Mul (Const (-0.5), r 1 [| 0; 0; -1 |]), r 0 [| 1; 0; 0 |])
              ) ))
  in
  Alcotest.(check string) "symbolic" "04d7cf12bb6e7a421f80d230542c80c0"
    (Lower.fingerprint (kernel (Expr.Coeff "r")));
  Alcotest.(check string) "resolved" "36b6efaa62680d4aaf4147c8ec6cbd02"
    (Lower.fingerprint (kernel (Expr.Const 1e-3)))

let test_unresolved_plan () =
  let spec = Spec.v ~name:"sym" ~rank:1 Dsl.(p "r" *: fld [ 0 ]) in
  let plan = Lower.lower spec in
  Alcotest.(check bool) "symbolic plan is unresolved" false
    (Plan.resolved plan);
  (* Still fingerprintable: the digest covers the symbol name. *)
  let other = Spec.v ~name:"sym" ~rank:1 Dsl.(p "q" *: fld [ 0 ]) in
  Alcotest.(check bool) "symbol name is part of the digest" false
    (Lower.fingerprint spec = Lower.fingerprint other);
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 11 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  Alcotest.check_raises "bind refuses symbolic plans"
    (Invalid_argument "Lower: unresolved coefficient r") (fun () ->
      ignore (Lower.bind plan ~inputs:[| g |] ~output:o))

(* ------------------------------------------------------------------ *)
(* Error paths: Lower.check, and the same violations pushed through
   Sweep.run on each backend (gates off, so the backend's own
   validation is what fires).                                          *)

let contains = Astring_contains.contains

let backends = [ Sweep.Plan_backend; Sweep.Codegen_backend ]

let raises_invalid ~substr f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" substr
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" msg substr)
        true (contains msg substr)

let heat1 = Spec.v ~name:"heat1" ~rank:1
    Dsl.(c 0.25 *: fld [ -1 ] +: (c 0.5 *: fld [ 0 ]) +: (c 0.25 *: fld [ 1 ]))

let wide1 = Spec.v ~name:"wide1" ~rank:1 Dsl.(fld [ -2 ] +: fld [ 2 ])

let test_check_field_count () =
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 1 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"field" (fun () ->
      Lower.check (Lower.lower heat1) ~inputs:[| g; g |] ~output:o);
  List.iter
    (fun backend ->
      raises_invalid ~substr:"field" (fun () ->
          Sweep.run ~backend ~check:false heat1 ~inputs:[| g; g |] ~output:o))
    backends

let test_check_rank () =
  let g1 = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 2 in
  let heat2s = heat2 in
  let g2 = make_grid ~halo:[| 1; 1 |] ~dims:[| 8; 8 |] 3 in
  let o2 = Grid.create ~halo:[| 1; 1 |] ~dims:[| 8; 8 |] () in
  raises_invalid ~substr:"rank" (fun () ->
      Lower.check (Lower.lower heat2s) ~inputs:[| g1 |] ~output:o2);
  (* Output rank is checked too. *)
  let o1 = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"rank" (fun () ->
      Lower.check (Lower.lower heat2s) ~inputs:[| g2 |] ~output:o1)

let test_check_halo () =
  let thin = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 4 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"halo" (fun () ->
      Lower.check (Lower.lower wide1) ~inputs:[| thin |] ~output:o);
  List.iter
    (fun backend ->
      raises_invalid ~substr:"halo" (fun () ->
          Sweep.run ~backend ~check:false wide1 ~inputs:[| thin |] ~output:o))
    backends

(* The driver sizes its unchecked stack from the declared depth, loads
   through unchecked slot tables and stores the one value left: code
   that outgrows the depth, underflows, leaves two values or loads a
   slot outside the access table is refused before it runs, on both
   backends. *)
let test_stack_unsafe_code () =
  let spec = Spec.v ~name:"copy" ~rank:1 Dsl.(fld [ 0 ]) in
  let g = make_grid ~halo:[| 1 |] ~dims:[| 200 |] 8 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 200 |] () in
  let plan code depth =
    Plan.v ~name:"unsafe" ~rank:1 ~n_fields:1
      ~accesses:[| { Expr.field = 0; offsets = [| 0 |] } |]
      ~code ~depth
  in
  List.iter
    (fun (substr, code, depth) ->
      raises_invalid ~substr (fun () ->
          Lower.check (plan code depth) ~inputs:[| g |] ~output:o);
      List.iter
        (fun backend ->
          raises_invalid ~substr (fun () ->
              Sweep.run ~backend ~plan:(plan code depth) spec ~inputs:[| g |]
                ~output:o))
        backends)
    [ ("declared depth 1", [| Plan.Load 0; Plan.Load 0; Plan.Add |], 1);
      ("empty stack", [| Plan.Load 0; Plan.Add |], 1);
      ("2 values", [| Plan.Load 0; Plan.Push 2.0 |], 2);
      ("slot 1 outside", [| Plan.Load 1 |], 1) ]

let test_unresolved_both_backends () =
  let spec = Spec.v ~name:"sym" ~rank:1 Dsl.(p "r" *: fld [ 0 ]) in
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 5 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  List.iter
    (fun backend ->
      Alcotest.check_raises
        (Sweep.backend_name backend ^ " refuses unresolved coefficients")
        (Invalid_argument "Lower: unresolved coefficient r") (fun () ->
          ignore
            (Sweep.run ~backend ~check:false spec ~inputs:[| g |] ~output:o)))
    backends

(* The dynamic sanitizer reaches the same verdict on both backends:
   an aliased in-place sweep traps YS452 either way. *)
let test_sanitizer_verdict_parity () =
  List.iter
    (fun backend ->
      let g = make_grid ~halo:[| 1 |] ~dims:[| 12 |] 6 in
      let san = Sanitizer.create () in
      let code =
        try
          ignore
            (Sweep.run ~backend ~check:false ~sanitize:san heat1
               ~inputs:[| g |] ~output:g);
          None
        with Sanitizer.Trap t -> Some (Sanitizer.code_of_kind t.Sanitizer.kind)
      in
      Alcotest.(check (option string))
        (Sweep.backend_name backend ^ " traps the aliased sweep")
        (Some "YS452") code)
    backends

(* ------------------------------------------------------------------ *)
(* Backend selection.                                                  *)

let test_backend_selection () =
  let original = Sweep.default_backend () in
  Sweep.set_default_backend Sweep.Codegen_backend;
  Alcotest.(check string) "override to codegen" "codegen"
    (Sweep.backend_name (Sweep.default_backend ()));
  Sweep.set_default_backend Sweep.Plan_backend;
  Alcotest.(check string) "override to plan" "plan"
    (Sweep.backend_name (Sweep.default_backend ()));
  (* Restore whatever the environment selected for this test run. *)
  Sweep.set_default_backend original

let suite =
  [ qt plan_backend_matches_oracle;
    qt long_rows_match_oracle;
    qt wavefront_backend_parity;
    qt traced_backend_parity;
    Alcotest.test_case "heat 5pt lowers to tree-order postfix" `Quick
      test_postfix_in_tree_order;
    Alcotest.test_case "every sum and scale shape bit-reproduces the oracle"
      `Quick test_sum_and_scale_shapes;
    Alcotest.test_case "fingerprint ignores the kernel name" `Quick
      test_fingerprint_ignores_name;
    Alcotest.test_case "Lower.fingerprint matches the plan" `Quick
      test_fingerprint_matches_plan;
    Alcotest.test_case "fingerprint format pinned" `Quick
      test_fingerprint_format_pinned;
    Alcotest.test_case "fingerprint of every token pinned" `Quick
      test_fingerprint_every_token_pinned;
    Alcotest.test_case "symbolic plans fingerprint but refuse to bind" `Quick
      test_unresolved_plan;
    Alcotest.test_case "field-count mismatch rejected everywhere" `Quick
      test_check_field_count;
    Alcotest.test_case "rank mismatch rejected everywhere" `Quick
      test_check_rank;
    Alcotest.test_case "insufficient halo rejected everywhere" `Quick
      test_check_halo;
    Alcotest.test_case "stack-unsafe code rejected everywhere" `Quick
      test_stack_unsafe_code;
    Alcotest.test_case "unresolved coefficient rejected on both backends"
      `Quick test_unresolved_both_backends;
    Alcotest.test_case "sanitizer verdict identical across backends" `Quick
      test_sanitizer_verdict_parity;
    Alcotest.test_case "backend override and restore" `Quick
      test_backend_selection ]
