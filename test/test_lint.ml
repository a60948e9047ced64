open Yasksite_lint
module Machine = Yasksite_arch.Machine
module Stencil = Yasksite_stencil
module Config = Yasksite_ecm.Config
module Advisor = Yasksite_ecm.Advisor
module Pde = Yasksite_ode.Pde
module Tableau = Yasksite_ode.Tableau
module Variant = Yasksite_offsite.Variant
module Prng = Yasksite_util.Prng
module D = Diagnostic

let qt = QCheck_alcotest.to_alcotest

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

let has code ds = List.mem code (codes ds)

let check_has src code ds =
  Alcotest.(check bool) (src ^ " flags " ^ code) true (has code ds)

let check_hasnt src code ds =
  Alcotest.(check bool) (src ^ " clean of " ^ code) false (has code ds)

let check_no_errors what ds =
  Alcotest.(check (list string))
    (what ^ " has no error findings")
    [] (codes (D.errors ds))

(* ------------------------------------------------------------------ *)
(* Kernel rules, one positive and one negative case per code           *)

let lint2 src = Kernel_lint.source ~rank:2 src

let test_ys100 () =
  let ds = lint2 "f0(y,x" in
  check_has "unterminated" "YS100" ds;
  Alcotest.(check int) "exit" 1 (Lint.exit_code ds);
  check_hasnt "valid" "YS100" (lint2 "f0(y,x)");
  (* Axis misuse and rank misuse are parser-reported, hence YS100. *)
  check_has "axes swapped" "YS100" (lint2 "f0(x,y)");
  check_has "wrong arity" "YS100" (lint2 "f0(x)")

let test_ys100_position () =
  (* An error at end-of-input must point one past the last byte, not at
     offset 0 — the caret lands after "1 + ". *)
  let src = "1 + " in
  (match Stencil.Parser.parse_expr_located ~rank:1 src with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error (pos, _) ->
      Alcotest.(check int) "error at end of input" (String.length src) pos);
  match Kernel_lint.source ~rank:1 src with
  | [ d ] ->
      Alcotest.(check string) "code" "YS100" d.D.code;
      let rendered = D.render ~src d in
      Alcotest.(check bool) "caret rendered" true (String.contains rendered '^')
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length ds))

let test_ys101 () =
  (* Acceptance case: declared-but-unused input field is an error. *)
  let ds = Kernel_lint.source ~n_fields:2 ~rank:2 "f0(y,x)" in
  check_has "unused f1" "YS101" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  check_hasnt "both read" "YS101"
    (Kernel_lint.source ~n_fields:2 ~rank:2 "f0(y,x) + f1(y,x)");
  (* Same rule on a DSL-built spec. *)
  let open Stencil.Dsl in
  let spec =
    Stencil.Spec.v ~name:"dead-input" ~rank:1 ~n_fields:2 (fld [ 0 ])
  in
  check_has "spec unused f1" "YS101" (Kernel_lint.spec spec)

let test_ys102 () =
  let src = "f0(y,x) + f0(y,x)" in
  let ds = lint2 src in
  check_has "duplicate" "YS102" ds;
  (* The caret points at the second occurrence. *)
  (match List.find (fun (d : D.t) -> d.D.code = "YS102") ds with
  | { D.loc = D.Span { pos; _ }; _ } ->
      Alcotest.(check int) "second occurrence" 10 pos
  | _ -> Alcotest.fail "expected a span");
  Alcotest.(check int) "warning only: exit 0" 0 (Lint.exit_code ds);
  check_hasnt "distinct refs" "YS102" (lint2 "f0(y,x) + f0(y,x+1)")

let test_ys103 () =
  (* Acceptance case: division by literal zero, with a caret span. *)
  let src = "f0(y,x) / 0.0" in
  let ds = lint2 src in
  check_has "zero divide" "YS103" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  let rendered = D.render_list ~src ~origin:"kernel" ds in
  Alcotest.(check bool) "code in output" true
    (Astring_contains.contains rendered "YS103");
  Alcotest.(check bool) "caret in output" true (String.contains rendered '^');
  check_has "negated zero" "YS103" (lint2 "f0(y,x) / -0.0");
  check_hasnt "nonzero divisor" "YS103" (lint2 "f0(y,x) / 4.0")

let test_ys104 () =
  check_has "symbolic divisor" "YS104" (lint2 "f0(y,x) / h");
  check_hasnt "resolved divisor" "YS104" (lint2 "f0(y,x) / 2.0")

let test_ys105 () =
  check_has "pointwise" "YS105" (lint2 "2.0 * f0(y,x)");
  check_hasnt "has neighbors" "YS105" (lint2 "f0(y,x-1) + f0(y,x+1)")

let test_ys106 () =
  let src = "f0(y,x) + f0(y+1,x)" in
  let ds = lint2 src in
  check_has "one-sided" "YS106" ds;
  (* The caret points at the reference with the extreme offset. *)
  (match List.find (fun (d : D.t) -> d.D.code = "YS106") ds with
  | { D.loc = D.Span { pos; _ }; _ } ->
      Alcotest.(check int) "extreme ref" 10 pos
  | _ -> Alcotest.fail "expected a span");
  check_hasnt "symmetric" "YS106" (lint2 "f0(y-1,x) + f0(y+1,x)");
  (* Asymmetry in a non-streamed dimension is legal for wavefronts. *)
  check_hasnt "x asymmetry" "YS106" (lint2 "f0(y,x) + f0(y,x+1)")

let test_ys107 () =
  let ds = Kernel_lint.source ~rank:1 "1.0 + 2.0" in
  check_has "no field" "YS107" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  (* Divisions are still checked even without any reference. *)
  check_has "zero divide, no field" "YS103"
    (Kernel_lint.source ~rank:1 "1.0 / 0.0");
  check_hasnt "reads a field" "YS107" (Kernel_lint.source ~rank:1 "f0(x)")

let test_ys108 () =
  let ds = Kernel_lint.source ~n_fields:1 ~rank:1 "f1(x)" in
  check_has "out of range" "YS108" ds;
  check_hasnt "in range" "YS108" (Kernel_lint.source ~n_fields:2 ~rank:1 "f1(x)")

(* ------------------------------------------------------------------ *)
(* Machine rules                                                       *)

let base_machine =
  "name = toy\n\
   freq_ghz = 2.0\n\
   cores = 4\n\
   dp_lanes = 4\n\
   fma_ports = 1\n\
   mem_bw_gbs = 20.0\n\
   \n\
   [cache]\n\
   name = L1\n\
   size_kib = 32\n\
   assoc = 8\n\
   bytes_per_cycle = 32\n\
   latency_cycles = 4\n\
   \n\
   [cache]\n\
   name = L2\n\
   size_kib = 256\n\
   assoc = 8\n\
   bytes_per_cycle = 16\n\
   latency_cycles = 12\n"

(* Rewrite one "key = value" line of [base_machine]. [nth] selects among
   several occurrences of the key (sections share key names). *)
let tweak ?(nth = 0) key value =
  let n = ref (-1) in
  String.split_on_char '\n' base_machine
  |> List.map (fun line ->
         match String.index_opt line '=' with
         | Some j when String.trim (String.sub line 0 j) = key ->
             incr n;
             if !n = nth then Printf.sprintf "%s = %s" key value else line
         | _ -> line)
  |> String.concat "\n"

let test_machine_clean () =
  check_no_errors "base machine" (Machine_lint.source base_machine);
  Alcotest.(check int) "exit 0" 0
    (Lint.exit_code (Machine_lint.source base_machine))

let test_ys200 () =
  check_has "garbage line" "YS200" (Machine_lint.source "what is this\n");
  let without_name =
    String.concat "\n"
      (List.filter
         (fun line -> String.trim line <> "name = toy")
         (String.split_on_char '\n' base_machine))
  in
  check_has "missing name" "YS200" (Machine_lint.source without_name);
  check_has "bad number" "YS200"
    (Machine_lint.source (tweak "freq_ghz" "fast"));
  check_has "unknown vendor" "YS200"
    (Machine_lint.source ("vendor = arm\n" ^ base_machine));
  check_has "unreadable file" "YS200" (Machine_lint.file "no/such/file.machine");
  check_hasnt "base" "YS200" (Machine_lint.source base_machine)

let test_ys201 () =
  (* Acceptance case: a non-monotone hierarchy is an error, located at
     the offending size line and rendered with that line underlined. *)
  let src = tweak ~nth:1 "size_kib" "16" in
  let ds = Machine_lint.source src in
  check_has "shrinking L2" "YS201" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  let d = List.find (fun (d : D.t) -> d.D.code = "YS201") ds in
  (match d.D.loc with
  | D.Line n ->
      Alcotest.(check int) "points at L2 size line" 17 n
  | _ -> Alcotest.fail "expected a line location");
  let rendered = D.render ~src ~origin:"toy.machine" d in
  Alcotest.(check bool) "offending line shown" true
    (Astring_contains.contains rendered "size_kib = 16");
  Alcotest.(check bool) "underlined" true (String.contains rendered '^');
  check_hasnt "monotone" "YS201" (Machine_lint.source base_machine)

let test_ys202 () =
  check_has "zero bandwidth" "YS202"
    (Machine_lint.source (tweak "bytes_per_cycle" "0"));
  check_has "negative memory bw" "YS202"
    (Machine_lint.source (tweak "mem_bw_gbs" "-1.0"));
  check_hasnt "base" "YS202" (Machine_lint.source base_machine)

let test_ys203 () =
  check_has "zero latency" "YS203"
    (Machine_lint.source (tweak "latency_cycles" "0"));
  check_hasnt "base" "YS203" (Machine_lint.source base_machine)

let test_ys204 () =
  (* 48-byte lines with a 32-byte vector fold: neither divides the other.
     Sizes keep the set count integral so only YS204 fires. *)
  let src =
    tweak "size_kib" "3" |> fun s ->
    String.concat "\n"
      (List.map
         (fun line ->
           if String.trim line = "assoc = 8" then "assoc = 4\nline_bytes = 48"
           else line)
         (String.split_on_char '\n' s))
  in
  let ds = Machine_lint.source src in
  check_has "misaligned line" "YS204" ds;
  check_hasnt "aligned 64B" "YS204" (Machine_lint.source base_machine)

let test_ys205 () =
  let src =
    "name = toy\nfreq_ghz = 2.0\ncores = 4\ndp_lanes = 4\nfma_ports = 1\n\
     mem_bw_gbs = 20.0\n"
  in
  check_has "no caches" "YS205" (Machine_lint.source src);
  check_hasnt "has caches" "YS205" (Machine_lint.source base_machine)

let test_ys206 () =
  let ds = Machine_lint.source (tweak ~nth:1 "latency_cycles" "4") in
  check_has "flat latency" "YS206" ds;
  Alcotest.(check int) "warning only" 0 (Lint.exit_code ds);
  check_hasnt "increasing" "YS206" (Machine_lint.source base_machine)

let test_ys207 () =
  check_has "zero cores" "YS207" (Machine_lint.source (tweak "cores" "0"));
  (* 32 KiB with assoc 7 and 64-byte lines: no integral set count. *)
  check_has "bad set count" "YS207"
    (Machine_lint.source (tweak "assoc" "7"));
  check_hasnt "base" "YS207" (Machine_lint.source base_machine)

let test_ys208 () =
  check_has "duplicate key" "YS208"
    (Machine_lint.source (base_machine ^ "bytes_per_cycle = 8\n"));
  check_hasnt "base" "YS208" (Machine_lint.source base_machine)

let test_machine_value () =
  check_no_errors "test_chip" (Machine_lint.machine Machine.test_chip);
  check_no_errors "cascade_lake" (Machine_lint.machine Machine.cascade_lake);
  check_no_errors "rome" (Machine_lint.machine Machine.rome)

(* ------------------------------------------------------------------ *)
(* Config rules                                                        *)

let heat2d =
  Stencil.Analysis.of_spec
    (Stencil.Suite.resolve_defaults Stencil.Suite.heat_2d_5pt)

let m = Machine.test_chip

let cfg = Config.v

let test_ys301 () =
  (* Acceptance case: an 8000-wide explicit block needs ~188 KiB of rows
     while the largest share of the TestChip is 256 KiB (budget 128 KiB). *)
  let dims = [| 8192; 8192 |] in
  let ds =
    Config_lint.config m heat2d ~dims (cfg ~block:[| 0; 8000 |] ())
  in
  check_has "oversized block" "YS301" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  check_hasnt "modest block" "YS301"
    (Config_lint.config m heat2d ~dims (cfg ~block:[| 0; 64 |] ()));
  (* An unblocked config never triggers the block rule. *)
  check_hasnt "unblocked" "YS301" (Config_lint.config m heat2d ~dims (cfg ()))

let test_ys302 () =
  let dims = [| 48; 48 |] in
  check_has "5 does not divide 48" "YS302"
    (Config_lint.config m heat2d ~dims (cfg ~fold:[| 1; 5 |] ()));
  check_hasnt "4 divides 48" "YS302"
    (Config_lint.config m heat2d ~dims (cfg ~fold:[| 1; 4 |] ()))

let test_ys303_ys304 () =
  let dims = [| 48; 48 |] in
  let ds = Config_lint.space m heat2d ~dims [] in
  check_has "empty space" "YS303" ds;
  Alcotest.(check int) "exit nonzero" 1 (Lint.exit_code ds);
  let ds1 = Config_lint.space m heat2d ~dims [ cfg () ] in
  check_has "singleton space" "YS304" ds1;
  check_hasnt "real space" "YS304"
    (Config_lint.space m heat2d ~dims [ cfg (); cfg ~threads:2 () ])

let test_ys305 () =
  let dims = [| 48; 48 |] in
  let ds = Config_lint.config m heat2d ~dims (cfg ~block:[| 0; 0; 16 |] ()) in
  check_has "rank mismatch" "YS305" ds;
  (* Structural errors suppress the per-dimension rules. *)
  Alcotest.(check bool) "only YS305" true
    (List.for_all (fun (d : D.t) -> d.D.code = "YS305") ds);
  check_has "dims mismatch" "YS305"
    (Config_lint.config m heat2d ~dims:[| 48 |] (cfg ()));
  check_hasnt "matching ranks" "YS305"
    (Config_lint.config m heat2d ~dims (cfg ~block:[| 0; 16 |] ()))

let test_ys306 () =
  let dims = [| 64; 64 |] in
  check_has "wavefront + NT stores" "YS306"
    (Config_lint.config m heat2d ~dims
       (cfg ~wavefront:4 ~streaming_stores:true ()));
  check_hasnt "wavefront alone" "YS306"
    (Config_lint.config m heat2d ~dims (cfg ~wavefront:4 ()))

let test_ys307 () =
  let dims = [| 64; 64 |] in
  check_has "oversubscribed" "YS307"
    (Config_lint.config m heat2d ~dims (cfg ~threads:8 ()));
  check_hasnt "within cores" "YS307"
    (Config_lint.config m heat2d ~dims (cfg ~threads:4 ()))

let test_ys308 () =
  let dims = [| 64; 64 |] in
  check_has "over-packed fold" "YS308"
    (Config_lint.config m heat2d ~dims (cfg ~fold:[| 2; 4 |] ()));
  check_hasnt "matching fold" "YS308"
    (Config_lint.config m heat2d ~dims (cfg ~fold:[| 1; 4 |] ()))

let test_ys309 () =
  check_has "window too deep" "YS309"
    (Config_lint.config m heat2d ~dims:[| 4096; 4096 |] (cfg ~wavefront:8 ()));
  check_hasnt "window fits" "YS309"
    (Config_lint.config m heat2d ~dims:[| 64; 64 |] (cfg ~wavefront:4 ()))

(* ------------------------------------------------------------------ *)
(* Gate and end-to-end wiring                                          *)

let test_gate () =
  Alcotest.(check bool) "clean passes" true
    (try
       Lint.gate ~context:"t" [];
       Lint.gate ~context:"t" [ D.warningf ~code:"YS102" "w" ];
       true
     with Lint.Gate_error _ -> false);
  Alcotest.(check bool) "errors raise" true
    (try
       Lint.gate ~context:"t" [ D.errorf ~code:"YS103" "division by zero" ];
       false
     with Lint.Gate_error msg ->
       Astring_contains.contains msg "YS103"
       && Astring_contains.contains msg "t:")

let test_tuner_gate () =
  (* A spec with a dead input must be refused before any model run. *)
  let open Stencil.Dsl in
  let bad =
    Stencil.Spec.v ~name:"dead" ~rank:1 ~n_fields:2
      (fld [ -1 ] +: fld [ 1 ])
  in
  Alcotest.(check bool) "tuner refuses" true
    (try
       ignore
         (Yasksite_tuner.Tuner.tune_analytic m bad ~dims:[| 32 |] ~threads:1);
       false
     with Lint.Gate_error msg -> Astring_contains.contains msg "YS101")

let test_rules_table () =
  (* Every code the analyzers can emit is documented, exactly once. *)
  let table = List.map (fun (c, _, _) -> c) Lint.rules in
  Alcotest.(check int) "unique codes" (List.length table)
    (List.length (List.sort_uniq compare table));
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " documented") true (List.mem code table))
    [ "YS100"; "YS101"; "YS102"; "YS103"; "YS104"; "YS105"; "YS106"; "YS107";
      "YS108"; "YS200"; "YS201"; "YS202"; "YS203"; "YS204"; "YS205"; "YS206";
      "YS207"; "YS208"; "YS301"; "YS302"; "YS303"; "YS304"; "YS305"; "YS306";
      "YS307"; "YS308"; "YS309"; "YS400"; "YS401"; "YS402"; "YS403"; "YS404";
      "YS405"; "YS406"; "YS407"; "YS408"; "YS409"; "YS450"; "YS451"; "YS452";
      "YS453"; "YS454"; "YS455"; "YS456" ]

(* ------------------------------------------------------------------ *)
(* Self-lint of everything the repo ships                              *)

let test_selflint_suite () =
  List.iter
    (fun s ->
      let s = Stencil.Suite.resolve_defaults s in
      check_no_errors s.Stencil.Spec.name (Kernel_lint.spec s))
    Stencil.Suite.all

let test_selflint_examples () =
  (* The specs the shipped examples construct (examples/quickstart.ml and
     examples/multigrid.ml build theirs from scratch; the rest use the
     suite, covered above). *)
  let open Stencil.Dsl in
  let quickstart =
    Stencil.Spec.v ~name:"my-heat-3d" ~rank:3
      ((c 0.1
       *: sum
            [ fld [ -1; 0; 0 ]; fld [ 1; 0; 0 ]; fld [ 0; -1; 0 ];
              fld [ 0; 1; 0 ]; fld [ 0; 0; -1 ]; fld [ 0; 0; 1 ] ])
      +: (c 0.4 *: fld [ 0; 0; 0 ]))
  in
  let h2 = 1.0 /. 1024.0 and omega = 2.0 /. 3.0 in
  let jacobi =
    Stencil.Spec.v ~name:"mg-jacobi" ~rank:1 ~n_fields:2
      ((c (1.0 -. omega) *: fld [ 0 ])
      +: (c (omega /. 2.0)
         *: (fld [ -1 ] +: fld [ 1 ] +: (c h2 *: fld ~field:1 [ 0 ]))))
  in
  let residual =
    Stencil.Spec.v ~name:"mg-residual" ~rank:1 ~n_fields:2
      (fld ~field:1 [ 0 ]
      +: (c (1.0 /. h2)
         *: (fld [ -1 ] -: (c 2.0 *: fld [ 0 ]) +: fld [ 1 ])))
  in
  List.iter
    (fun s -> check_no_errors s.Stencil.Spec.name (Kernel_lint.spec s))
    [ quickstart; jacobi; residual ]

let test_selflint_variants () =
  (* Every stage kernel of every ODE variant must pass the gate the
     executor now applies. *)
  let pde = Pde.heat ~rank:2 ~n:16 ~alpha:1.0 in
  List.iter
    (fun (v : Variant.t) ->
      List.iter
        (fun (k : Variant.kernel) ->
          check_no_errors k.Variant.spec.Stencil.Spec.name
            (Kernel_lint.spec k.Variant.spec))
        v.Variant.kernels)
    (Variant.all Tableau.rk4 pde ~h:1e-4)

let test_selflint_machines () =
  let dir = Repo_file.path "machines" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".machine")
  in
  Alcotest.(check bool) "found shipped machine files" true
    (List.length files >= 2);
  List.iter
    (fun f ->
      let ds = Machine_lint.file (Filename.concat dir f) in
      check_no_errors f ds;
      Alcotest.(check int) (f ^ " exits 0") 0 (Lint.exit_code ds))
    files

let test_selflint_advisor_space () =
  (* The advisor's own search space must survive its own lint. *)
  let dims = [| 48; 48 |] in
  let space = Advisor.space m ~dims ~threads:2 ~rank:2 in
  check_no_errors "advisor space" (Config_lint.space m heat2d ~dims space)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let lint_total_on_strings =
  QCheck.Test.make ~name:"kernel lint total on arbitrary strings" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 40))
    (fun src ->
      let ds = Kernel_lint.source ~rank:2 src in
      (* Parse failures map to YS100; accepted inputs never do. *)
      (match Stencil.Parser.parse_expr ~rank:2 src with
      | Ok _ -> not (has "YS100" ds)
      | Error _ -> has "YS100" ds)
      && String.length (D.render_list ~src ds) >= 0)

let lint_total_on_generated_specs =
  QCheck.Test.make ~name:"lint never raises on generated kernels" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let rank = 1 + Prng.int rng ~bound:3 in
      let spec = Stencil.Gen.spec rng ~rank () in
      let ds = Kernel_lint.spec spec in
      (* Generated kernels are well-formed: no error-severity findings,
         and re-linting their printed source agrees on that. *)
      (not (D.has_errors ds))
      &&
      let printed = Stencil.Expr.to_c spec.Stencil.Spec.expr in
      not
        (D.has_errors
           (Kernel_lint.source ~n_fields:spec.Stencil.Spec.n_fields ~rank
              printed)))

let machine_lint_total =
  QCheck.Test.make ~name:"machine lint total on arbitrary strings" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun src -> String.length (D.render_list ~src (Machine_lint.source src)) >= 0)

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "YS100 parse failure" `Quick test_ys100;
    Alcotest.test_case "YS100 end-of-input position" `Quick test_ys100_position;
    Alcotest.test_case "YS101 unused field" `Quick test_ys101;
    Alcotest.test_case "YS102 duplicate ref" `Quick test_ys102;
    Alcotest.test_case "YS103 zero divide" `Quick test_ys103;
    Alcotest.test_case "YS104 symbolic divide" `Quick test_ys104;
    Alcotest.test_case "YS105 radius 0" `Quick test_ys105;
    Alcotest.test_case "YS106 asymmetric" `Quick test_ys106;
    Alcotest.test_case "YS107 no field" `Quick test_ys107;
    Alcotest.test_case "YS108 field range" `Quick test_ys108;
    Alcotest.test_case "machine base clean" `Quick test_machine_clean;
    Alcotest.test_case "YS200 parse/keys" `Quick test_ys200;
    Alcotest.test_case "YS201 non-monotone sizes" `Quick test_ys201;
    Alcotest.test_case "YS202 bandwidth" `Quick test_ys202;
    Alcotest.test_case "YS203 latency" `Quick test_ys203;
    Alcotest.test_case "YS204 line/fold alignment" `Quick test_ys204;
    Alcotest.test_case "YS205 no caches" `Quick test_ys205;
    Alcotest.test_case "YS206 latency order" `Quick test_ys206;
    Alcotest.test_case "YS207 geometry" `Quick test_ys207;
    Alcotest.test_case "YS208 duplicate keys" `Quick test_ys208;
    Alcotest.test_case "machine values" `Quick test_machine_value;
    Alcotest.test_case "YS301 block vs cache" `Quick test_ys301;
    Alcotest.test_case "YS302 fold divides" `Quick test_ys302;
    Alcotest.test_case "YS303/YS304 space size" `Quick test_ys303_ys304;
    Alcotest.test_case "YS305 rank mismatch" `Quick test_ys305;
    Alcotest.test_case "YS306 wavefront + NT" `Quick test_ys306;
    Alcotest.test_case "YS307 threads" `Quick test_ys307;
    Alcotest.test_case "YS308 fold lanes" `Quick test_ys308;
    Alcotest.test_case "YS309 wavefront window" `Quick test_ys309;
    Alcotest.test_case "gate" `Quick test_gate;
    Alcotest.test_case "tuner gate" `Quick test_tuner_gate;
    Alcotest.test_case "rules table" `Quick test_rules_table;
    Alcotest.test_case "self-lint: suite" `Quick test_selflint_suite;
    Alcotest.test_case "self-lint: examples" `Quick test_selflint_examples;
    Alcotest.test_case "self-lint: ODE variants" `Quick test_selflint_variants;
    Alcotest.test_case "self-lint: machine files" `Quick test_selflint_machines;
    Alcotest.test_case "self-lint: advisor space" `Quick
      test_selflint_advisor_space;
    qt lint_total_on_strings;
    qt lint_total_on_generated_specs;
    qt machine_lint_total ]
