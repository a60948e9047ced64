open Yasksite_stencil
module Grid = Yasksite_grid.Grid
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let test_heat3d_analysis () =
  let a = Analysis.of_spec Suite.heat_3d_7pt in
  Alcotest.(check int) "loads" 7 a.Analysis.loads;
  Alcotest.(check int) "stores" 1 a.Analysis.stores;
  Alcotest.(check int) "adds" 6 a.Analysis.adds;
  Alcotest.(check int) "muls" 2 a.Analysis.muls;
  Alcotest.(check int) "flops" 8 a.Analysis.flops;
  Alcotest.(check bool) "star" true (a.Analysis.shape = Analysis.Star);
  Alcotest.(check (array int)) "radius" [| 1; 1; 1 |] a.Analysis.radius;
  Alcotest.(check (float 1e-12)) "balance" 24.0 (Analysis.min_code_balance a)

let test_box27_analysis () =
  let a = Analysis.of_spec Suite.box_3d_27pt in
  Alcotest.(check int) "loads" 27 a.Analysis.loads;
  Alcotest.(check bool) "box" true (a.Analysis.shape = Analysis.Box);
  Alcotest.(check int) "adds" 26 a.Analysis.adds;
  Alcotest.(check int) "muls" 1 a.Analysis.muls

let test_star_r2_analysis () =
  let a = Analysis.of_spec Suite.star_3d_r2 in
  Alcotest.(check int) "loads" 13 a.Analysis.loads;
  Alcotest.(check (array int)) "radius" [| 2; 2; 2 |] a.Analysis.radius;
  Alcotest.(check bool) "star" true (a.Analysis.shape = Analysis.Star)

let test_varcoef_analysis () =
  let a = Analysis.of_spec Suite.varcoef_3d_7pt in
  Alcotest.(check int) "n_fields" 2 a.Analysis.spec.Spec.n_fields;
  Alcotest.(check (list int)) "read fields" [ 0; 1 ] a.Analysis.read_fields;
  Alcotest.(check (float 1e-12)) "balance" 32.0 (Analysis.min_code_balance a);
  Alcotest.(check int) "field-1 accesses" 1
    (List.length (Analysis.accesses_of_field a 1))

let test_point_shape () =
  let a = Analysis.of_spec Suite.copy_1d in
  Alcotest.(check bool) "point" true (a.Analysis.shape = Analysis.Point);
  Alcotest.(check int) "flops" 0 a.Analysis.flops

let test_spec_validation () =
  Alcotest.check_raises "rank" (Invalid_argument "Spec: rank must be 1..3")
    (fun () -> ignore (Spec.v ~name:"x" ~rank:4 (Dsl.fld [ 0; 0; 0; 0 ])));
  Alcotest.check_raises "access rank"
    (Invalid_argument "Spec: access rank mismatch") (fun () ->
      ignore (Spec.v ~name:"x" ~rank:2 (Dsl.fld [ 0 ])));
  Alcotest.check_raises "field range"
    (Invalid_argument "Spec: field index out of range") (fun () ->
      ignore (Spec.v ~name:"x" ~rank:1 (Dsl.fld ~field:1 [ 0 ])));
  Alcotest.check_raises "no access"
    (Invalid_argument "Spec: expression reads no field") (fun () ->
      ignore (Spec.v ~name:"x" ~rank:1 (Dsl.c 1.0)))

let test_coeffs () =
  let names = Expr.coeff_names Suite.heat_3d_7pt.Spec.expr in
  Alcotest.(check (list string)) "names" [ "c"; "r" ] names;
  let resolved = Spec.resolve Suite.heat_3d_7pt [ ("r", 0.1); ("c", 0.4) ] in
  Alcotest.(check (list string)) "resolved" []
    (Expr.coeff_names resolved.Spec.expr)

let test_to_c () =
  let s = Spec.to_c (Suite.resolve_defaults Suite.heat_2d_5pt) in
  Alcotest.(check bool) "loop vars" true (Astring_contains.contains s "for (int y");
  Alcotest.(check bool) "access" true (Astring_contains.contains s "f0(y-1,x)")

(* A rank-1 kernel compiled for [g] — lowered, bound, and positioned on
   its one row — as [fun x -> value], a one-point row of the plan
   driver. *)
let compile1 spec g =
  let drv =
    Lower.driver (Lower.bind (Lower.lower spec) ~inputs:[| g |] ~output:g)
  in
  Lower.set_row drv [||];
  fun x ->
    let v = [| 0.0 |] in
    Lower.eval_row drv x (x + 1) v 0;
    v.(0)

let test_compile_heat1d () =
  let spec = Spec.resolve Suite.heat_1d_3pt [ ("r", 0.25); ("c", 0.5) ] in
  let g = Grid.create ~halo:[| 1 |] ~dims:[| 5 |] () in
  Grid.fill g ~f:(fun i -> float_of_int i.(0));
  Grid.halo_dirichlet g 0.0;
  let eval = compile1 spec g in
  (* at x=2: 0.25*(1+3) + 0.5*2 = 2.0 *)
  Alcotest.(check (float 1e-12)) "interior" 2.0 (eval 2);
  (* at x=0: 0.25*(halo 0 + 1) + 0 = 0.25 *)
  Alcotest.(check (float 1e-12)) "boundary" 0.25 (eval 0)

let test_compile_unresolved () =
  let g = Grid.create ~halo:[| 1 |] ~dims:[| 4 |] () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (compile1 Suite.heat_1d_3pt g : int -> float);
       false
     with Invalid_argument m ->
       m = "Lower: unresolved coefficient c"
       || m = "Lower: unresolved coefficient r")

let test_compile_halo_check () =
  let g = Grid.create ~dims:[| 4 |] () in
  let spec = Spec.resolve Suite.heat_1d_3pt [ ("r", 0.25); ("c", 0.5) ] in
  Alcotest.(check bool) "halo too small" true
    (try
       ignore (compile1 spec g : int -> float);
       false
     with Invalid_argument _ -> true)

let test_suite_resolves () =
  List.iter
    (fun spec ->
      let r = Suite.resolve_defaults spec in
      Alcotest.(check (list string))
        (spec.Spec.name ^ " fully resolved")
        []
        (Expr.coeff_names r.Spec.expr))
    Suite.all

let test_suite_find () =
  Alcotest.(check string) "find" "heat-3d-7pt"
    (Suite.find "heat-3d-7pt").Spec.name;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Suite.find "nope"))

let gen_specs_valid =
  QCheck.Test.make ~name:"generated stencils are valid and analysable"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:3 in
      let spec = Gen.spec rng ~rank in
      let a = Analysis.of_spec spec in
      a.Analysis.loads >= 1
      && Array.for_all (fun r -> r <= 2) a.Analysis.radius
      && a.Analysis.read_fields = [ 0 ]
      && Expr.coeff_names spec.Spec.expr = [])

let test_subst_and_map () =
  let e = Expr.Add (Expr.Coeff "a", Expr.Ref { field = 0; offsets = [| 1 |] }) in
  let e' = Expr.subst_coeffs (fun _ -> Some 2.0) e in
  Alcotest.(check bool) "substituted" true
    (match e' with Expr.Add (Expr.Const 2.0, _) -> true | _ -> false);
  let shifted =
    Expr.map_accesses
      (fun a -> { a with Expr.offsets = Array.map (( + ) 1) a.Expr.offsets })
      e
  in
  Alcotest.(check bool) "shifted" true
    (match shifted with
    | Expr.Add (_, Expr.Ref { offsets = [| 2 |]; _ }) -> true
    | _ -> false)

let base_suite =
  [ Alcotest.test_case "heat3d analysis" `Quick test_heat3d_analysis;
    Alcotest.test_case "box27 analysis" `Quick test_box27_analysis;
    Alcotest.test_case "star r2 analysis" `Quick test_star_r2_analysis;
    Alcotest.test_case "varcoef analysis" `Quick test_varcoef_analysis;
    Alcotest.test_case "point shape" `Quick test_point_shape;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "coefficients" `Quick test_coeffs;
    Alcotest.test_case "to_c rendering" `Quick test_to_c;
    Alcotest.test_case "compile heat1d" `Quick test_compile_heat1d;
    Alcotest.test_case "compile unresolved" `Quick test_compile_unresolved;
    Alcotest.test_case "compile halo check" `Quick test_compile_halo_check;
    Alcotest.test_case "suite resolves" `Quick test_suite_resolves;
    Alcotest.test_case "suite find" `Quick test_suite_find;
    qt gen_specs_valid;
    Alcotest.test_case "expr subst/map" `Quick test_subst_and_map ]

let test_parser_basic () =
  let e = Parser.parse_expr ~rank:1 "0.25*(f0(x-1) + f0(x+1)) + 0.5*f0(x)" in
  match e with
  | Error m -> Alcotest.fail m
  | Ok e ->
      let g = Grid.create ~halo:[| 1 |] ~dims:[| 4 |] () in
      Grid.fill g ~f:(fun i -> float_of_int i.(0));
      Grid.halo_dirichlet g 0.0;
      let spec =
        match Parser.parse_spec ~name:"t" ~rank:1 "f0(x)" with
        | Ok s -> Spec.v ~name:s.Spec.name ~rank:s.Spec.rank e
        | Error m -> Alcotest.fail m
      in
      (* at x=2: 0.25*(1+3) + 0.5*2 = 2.0 *)
      Alcotest.(check (float 1e-12)) "evaluates" 2.0 (compile1 spec g 2)

let test_parser_coefficients () =
  match Parser.parse_expr ~rank:2 "r * f0(y-1,x) + c * f0(y,x)" with
  | Error m -> Alcotest.fail m
  | Ok e ->
      Alcotest.(check (list string)) "coeffs" [ "c"; "r" ] (Expr.coeff_names e)

let test_parser_multifield () =
  match Parser.parse_spec ~name:"mf" ~rank:1 "f0(x) + f2(x+1)" with
  | Error m -> Alcotest.fail m
  | Ok s -> Alcotest.(check int) "fields inferred" 3 s.Spec.n_fields

let test_parser_errors () =
  let expect_error src =
    match Parser.parse_expr ~rank:2 src with
    | Ok _ -> Alcotest.fail (src ^ " should not parse")
    | Error m ->
        Alcotest.(check bool) "position in message" true
          (Astring_contains.contains m "at ")
  in
  expect_error "f0(y,x";
  expect_error "f0(x,y)" (* axes out of order *);
  expect_error "1 + ";
  expect_error "g0(y,x)" (* unknown function *);
  expect_error "f0(y,x) extra";
  expect_error "f0(w,x)" (* unknown axis *);
  expect_error "@";
  match Parser.parse_expr ~rank:9 "f0(x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rank 9 accepted"

(* A random tree over every operator, with named coefficients and
   finite constants that stress the printer: signed zero, an exponent
   form, a large negative value. *)
let random_expr rng ~rank ~depth =
  let consts = [| 0.0; -0.0; 1.0; 0.5; 1e-5; -3.25e7; 0.1 |] in
  let leaf () =
    match Prng.int rng ~bound:3 with
    | 0 ->
        Expr.Const
          (if Prng.bool rng then consts.(Prng.int rng ~bound:(Array.length consts))
           else Prng.float_range rng ~lo:(-100.0) ~hi:100.0)
    | 1 -> Expr.Coeff (if Prng.bool rng then "alpha" else "beta")
    | _ ->
        Expr.Ref
          { Expr.field = Prng.int rng ~bound:2;
            offsets = Array.init rank (fun _ -> Prng.int rng ~bound:5 - 2) }
  in
  let rec go depth =
    if depth = 0 then leaf ()
    else
      let sub () = go (depth - 1) in
      match Prng.int rng ~bound:9 with
      | 0 -> leaf ()
      | 1 -> Expr.Neg (sub ())
      | k ->
          let a = sub () in
          let b = sub () in
          (match k with
          | 2 -> Expr.Add (a, b)
          | 3 -> Expr.Sub (a, b)
          | 4 -> Expr.Mul (a, b)
          | 5 -> Expr.Div (a, b)
          | 6 -> Expr.Min (a, b)
          | 7 -> Expr.Max (a, b)
          | _ -> Expr.Select (sub (), a, b))
  in
  go depth

(* The parser inverts the printer: parsing the printed tree gives the
   same tree, up to constant folding (a printed negative constant parses
   back as a negated literal). *)
let parser_roundtrip =
  QCheck.Test.make ~name:"to_c / parse round-trip" ~count:1000 QCheck.int
    (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:3 in
      let e = random_expr rng ~rank ~depth:4 in
      let printed = Expr.to_c e in
      match Parser.parse_expr ~rank printed with
      | Error m -> QCheck.Test.fail_reportf "%s: %s" printed m
      | Ok e' ->
          Expr.equal (Expr.cfold e') (Expr.cfold e)
          || QCheck.Test.fail_reportf "%s parses back as %s" printed
               (Expr.to_c e'))

let test_parser_suite_roundtrip () =
  List.iter
    (fun spec ->
      let spec = Suite.resolve_defaults spec in
      let printed = Expr.to_c spec.Spec.expr in
      match Parser.parse_expr ~rank:spec.Spec.rank printed with
      | Error m -> Alcotest.fail (spec.Spec.name ^ ": " ^ m)
      | Ok e ->
          Alcotest.(check string) (spec.Spec.name ^ " round-trips") printed
            (Expr.to_c e))
    Suite.all

let extra_suite =
  [ Alcotest.test_case "parser basic" `Quick test_parser_basic;
    Alcotest.test_case "parser coefficients" `Quick test_parser_coefficients;
    Alcotest.test_case "parser multifield" `Quick test_parser_multifield;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    qt parser_roundtrip;
    Alcotest.test_case "parser suite round-trip" `Quick
      test_parser_suite_roundtrip ]



let parser_never_crashes =
  QCheck.Test.make ~name:"parser total on random input" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 40))
    (fun src ->
      match Parser.parse_expr ~rank:2 src with
      | Ok _ | Error _ -> true)

let test_parser_numbers () =
  (* Scientific notation and fractions survive the lexer. *)
  match Parser.parse_expr ~rank:1 "1.5e-3 * f0(x) + 2E+2 * f0(x+1)" with
  | Error m -> Alcotest.fail m
  | Ok e -> (
      match e with
      | Expr.Add (Expr.Mul (Expr.Const a, _), Expr.Mul (Expr.Const b, _)) ->
          Alcotest.(check (float 1e-12)) "mantissa" 0.0015 a;
          Alcotest.(check (float 1e-9)) "exponent" 200.0 b
      | _ -> Alcotest.fail "unexpected shape")

let test_parser_bare_coords () =
  match Parser.parse_expr ~rank:2 "f0(-1, 2)" with
  | Error m -> Alcotest.fail m
  | Ok (Expr.Ref { offsets; _ }) ->
      Alcotest.(check (array int)) "offsets" [| -1; 2 |] offsets
  | Ok _ -> Alcotest.fail "expected a single access"

let test_describe_row () =
  let row = Analysis.describe (Analysis.of_spec Suite.heat_3d_7pt) in
  Alcotest.(check int) "8 columns" 8 (List.length row);
  Alcotest.(check string) "name" "heat-3d-7pt" (List.hd row)

let parser_extra =
  [ qt parser_never_crashes;
    Alcotest.test_case "parser numbers" `Quick test_parser_numbers;
    Alcotest.test_case "parser bare coords" `Quick test_parser_bare_coords;
    Alcotest.test_case "describe row" `Quick test_describe_row ]

let suite = base_suite @ extra_suite @ parser_extra
