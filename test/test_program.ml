(* Stencil programs: min/max/select parsing, extended sweeps, the
   Program DAG layer (YS7xx lint), the topological executor, and the
   ECM-ranked fusion optimizer. *)

module Expr = Yasksite_stencil.Expr
module Spec = Yasksite_stencil.Spec
module Parser = Yasksite_stencil.Parser
module Analysis = Yasksite_stencil.Analysis
module P = Yasksite_stencil.Program
module Suite = Yasksite_stencil.Suite
module Grid = Yasksite_grid.Grid
module Config = Yasksite_ecm.Config
module Model = Yasksite_ecm.Model
module Advisor = Yasksite_ecm.Advisor
module Machine = Yasksite_arch.Machine
module Sweep = Yasksite_engine.Sweep
module Sanitizer = Yasksite_engine.Sanitizer
module Prog = Yasksite_engine.Prog
module Lint = Yasksite_lint.Lint
module D = Yasksite_lint.Diagnostic
module Prng = Yasksite_util.Prng
module Pool = Yasksite_util.Pool

let qt = QCheck_alcotest.to_alcotest

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

let has_code c ds = List.mem c (codes ds)

(* ------------------------------------------------------------------ *)
(* min / max / select through the parser                               *)

let eval1 src values =
  match Parser.parse_spec ~name:"t" ~rank:1 src with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let n = Array.length values in
      let g = Grid.create ~halo:[| 1 |] ~dims:[| n |] () in
      Grid.fill g ~f:(fun _ -> 0.0);
      Array.iteri (fun i v -> Grid.set g [| i |] v) values;
      let o = Grid.create ~dims:[| n |] () in
      ignore (Sweep.run spec ~inputs:[| g |] ~output:o : Sweep.stats);
      List.init n (fun i -> Grid.get o [| i |])

let test_select_semantics () =
  (* select(c,a,b) = if c > 0 then a else b, branchless; min/max are
     IEEE Float.min/max. *)
  let r = eval1 "select(f0(x), 10, 20)" [| -1.0; 0.0; 0.5 |] in
  Alcotest.(check (list (float 0.0))) "select" [ 20.0; 20.0; 10.0 ] r;
  let r = eval1 "min(f0(x), 0) + max(f0(x), 2)" [| -3.0; 4.0 |] in
  Alcotest.(check (list (float 0.0))) "min+max" [ -1.0; 4.0 ] r

let test_builtin_arity_errors () =
  let expect_error src frag =
    match Parser.parse_expr ~rank:2 src with
    | Ok _ -> Alcotest.fail (src ^ " should not parse")
    | Error m ->
        Alcotest.(check bool)
          (src ^ ": message mentions arity") true
          (Astring_contains.contains m frag);
        Alcotest.(check bool)
          (src ^ ": message is positioned") true
          (Astring_contains.contains m "at ")
  in
  expect_error "min(f0(y,x))" "min expects 2 arguments";
  expect_error "max(f0(y,x), 1, 2)" "max expects 2 arguments";
  expect_error "select(f0(y,x), 1)" "select expects 3 arguments";
  expect_error "select(1, 2, 3, 4)" "select expects 3 arguments"

let test_builtin_caret_spans () =
  (* Kernel lint turns the located parse error into a YS100 caret. *)
  List.iter
    (fun src ->
      match Lint.Kernel.source ~rank:2 src with
      | [ d ] ->
          Alcotest.(check string) "code" "YS100" d.D.code;
          Alcotest.(check bool) "located" true (d.D.loc <> D.No_loc);
          Alcotest.(check bool)
            "caret rendered" true
            (Astring_contains.contains (D.render ~src d) "^")
      | ds ->
          Alcotest.failf "%s: expected one finding, got %d" src
            (List.length ds))
    [ "min(f0(y,x))"; "select(f0(y,x), 1)" ]

(* ------------------------------------------------------------------ *)
(* Extended sweeps                                                     *)

let heat2 = Suite.resolve_defaults Suite.heat_2d_5pt

let fill_rng ?(seed = 3) g =
  let rng = Prng.create ~seed in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0)

let test_extended_sweep_embedding () =
  (* An extended sweep over [-e, dims+e) must equal a plain sweep over a
     grid whose interior is the extended region. *)
  let dims = [| 6; 7 |] and ext = [| 1; 2 |] in
  let in_halo = [| 2; 3 |] in
  (* radius 1 + ext *)
  let input = Grid.create ~halo:in_halo ~dims () in
  let output = Grid.create ~halo:ext ~dims () in
  fill_rng input;
  let _ =
    Sweep.run ~extend:ext heat2 ~inputs:[| input |] ~output
  in
  (* Embedding: interior = extended region, same values. *)
  let edims = Array.mapi (fun d e -> dims.(d) + (2 * e)) ext in
  let space = Grid.fresh_space () in
  let input' = Grid.create ~space ~halo:[| 1; 1 |] ~dims:edims () in
  let output' = Grid.create ~space ~dims:edims () in
  for y = -2 to edims.(0) + 1 do
    for x = -3 to edims.(1) + 2 do
      if y >= -1 && y <= edims.(0) && x >= -1 && x <= edims.(1) then
        Grid.set input' [| y; x |]
          (Grid.get input [| y - ext.(0); x - ext.(1) |])
    done
  done;
  let _ = Sweep.run heat2 ~inputs:[| input' |] ~output:output' in
  for y = 0 to edims.(0) - 1 do
    for x = 0 to edims.(1) - 1 do
      let a = Grid.get output' [| y; x |] in
      let b = Grid.get output [| y - ext.(0); x - ext.(1) |] in
      if not (Float.equal a b) then
        Alcotest.failf "mismatch at (%d,%d): %g vs %g" y x a b
    done
  done

let test_extended_gate_ys404 () =
  let dims = [| 6; 6 |] and ext = [| 1; 1 |] in
  let expect_ys404 ~in_halo ~out_halo =
    let input = Grid.create ~halo:in_halo ~dims () in
    let output = Grid.create ~halo:out_halo ~dims () in
    match Sweep.run ~extend:ext heat2 ~inputs:[| input |] ~output with
    | _ -> Alcotest.fail "extended sweep should have been gated"
    | exception Lint.Gate_error msg ->
        Alcotest.(check bool) "YS404 in gate" true
          (Astring_contains.contains msg "YS404")
  in
  (* Input halo must reach radius + ext; output halo must hold ext. *)
  expect_ys404 ~in_halo:[| 1; 1 |] ~out_halo:[| 1; 1 |];
  expect_ys404 ~in_halo:[| 2; 2 |] ~out_halo:[| 0; 0 |]

let test_extended_sanitize_rejected () =
  let dims = [| 6; 6 |] and ext = [| 1; 1 |] in
  let input = Grid.create ~halo:[| 2; 2 |] ~dims () in
  let output = Grid.create ~halo:[| 1; 1 |] ~dims () in
  Alcotest.check_raises "sanitize + extend"
    (Invalid_argument "Sweep: sanitize is not supported on extended sweeps")
    (fun () ->
      ignore
        (Sweep.run
           ~sanitize:(Sanitizer.create ())
           ~extend:ext heat2 ~inputs:[| input |] ~output))

let test_extended_pool_bit_identity () =
  let dims = [| 8; 10 |] and ext = [| 2; 1 |] in
  let config = Config.v ~block:[| 0; 4 |] () in
  let mk () =
    let space = Grid.fresh_space () in
    let input = Grid.create ~space ~halo:[| 3; 2 |] ~dims () in
    let output = Grid.create ~space ~halo:ext ~dims () in
    fill_rng input;
    (input, output)
  in
  let in_s, out_s = mk () in
  let stats_s =
    Sweep.run ~config ~extend:ext heat2 ~inputs:[| in_s |] ~output:out_s
  in
  let in_p, out_p = mk () in
  let stats_p =
    Pool.with_pool ~domains:3 (fun pool ->
        Sweep.run ~pool ~config ~extend:ext heat2 ~inputs:[| in_p |]
          ~output:out_p)
  in
  Alcotest.(check bool) "same stats" true (stats_s = stats_p);
  Alcotest.(check (float 0.0)) "bit-identical output" 0.0
    (Grid.max_abs_diff out_s out_p)

(* ------------------------------------------------------------------ *)
(* Program structure and YS7xx lint                                    *)

let parse_ok src =
  match P.parse src with
  | Ok p -> p
  | Error (line, msg) -> Alcotest.failf "line %d: %s" line msg

let test_hdiff_structure () =
  let p = Suite.hdiff in
  Alcotest.(check int) "stages" 16 (Array.length p.P.stages);
  Alcotest.(check (list string)) "no issues" []
    (List.map (fun _ -> "issue") (P.issues p));
  (match P.topo p with
  | Error _ -> Alcotest.fail "hdiff is acyclic"
  | Ok order ->
      Alcotest.(check int) "topo covers all stages" 16 (List.length order);
      (* Every stage's stage-reads appear strictly earlier. *)
      List.iteri
        (fun i name ->
          match P.find_stage p name with
          | None -> Alcotest.fail "topo names a stage"
          | Some s ->
              Array.iter
                (fun r ->
                  match P.find_stage p r with
                  | None -> () (* program input *)
                  | Some _ ->
                      let j =
                        Option.get
                          (List.find_index (String.equal r) order)
                      in
                      if j >= i then
                        Alcotest.failf "%s read before computed" r)
                s.P.reads)
        order);
  Alcotest.(check int) "inlinable" 12 (List.length (P.inlinable p));
  let comps = P.components p in
  Alcotest.(check int) "components" 4 (List.length comps);
  List.iter
    (fun c -> Alcotest.(check int) "component size" 4 (List.length c))
    comps

let test_hdiff_halo_plan () =
  let hp = P.halo_plan Suite.hdiff in
  let ext name = List.assoc name hp.P.stage_ext in
  Alcotest.(check (array int)) "ulap ext" [| 2; 2 |] (ext "ulap");
  Alcotest.(check (array int)) "ufli ext" [| 0; 1 |] (ext "ufli");
  Alcotest.(check (array int)) "uflj ext" [| 1; 0 |] (ext "uflj");
  Alcotest.(check (array int)) "uout ext" [| 0; 0 |] (ext "uout");
  let halo name = List.assoc name hp.P.input_halo in
  Alcotest.(check (array int)) "uin halo" [| 3; 3 |] (halo "uin");
  Alcotest.(check (array int)) "mask halo" [| 0; 0 |] (halo "mask")

let test_issue_codes () =
  let stage name reads expr_src =
    let fields = List.mapi (fun i n -> (n, i)) reads in
    match Parser.parse_expr ~fields ~rank:1 expr_src with
    | Ok expr -> { P.name; reads = Array.of_list reads; expr }
    | Error m -> Alcotest.fail m
  in
  let check_codes what expected p =
    let ds = Lint.Program.program p in
    List.iter
      (fun c -> Alcotest.(check bool) (what ^ ": " ^ c) true (has_code c ds))
      expected
  in
  (* YS701: undefined field. *)
  check_codes "undefined" [ "YS701" ]
    (P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "s" |]
       [ stage "s" [ "nope" ] "nope(x)" ]);
  (* YS702: cycle (and halo_plan refuses). *)
  let cyclic =
    P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "out" |]
      [ stage "a" [ "b" ] "b(x)";
        stage "b" [ "a" ] "a(x)";
        stage "out" [ "a" ] "a(x)" ]
  in
  check_codes "cycle" [ "YS702" ] cyclic;
  (match P.topo cyclic with
  | Ok _ -> Alcotest.fail "cycle not detected"
  | Error names ->
      Alcotest.(check bool) "cycle names a" true (List.mem "a" names));
  (try
     ignore (P.halo_plan cyclic);
     Alcotest.fail "halo_plan on a cycle"
   with Invalid_argument _ -> ());
  (* YS703: duplicate and reserved names. *)
  check_codes "duplicate" [ "YS703" ]
    (P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "s" |]
       [ stage "s" [ "in" ] "in(x)"; stage "s" [ "in" ] "in(x)" ]);
  check_codes "reserved" [ "YS703" ]
    (P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "select" |]
       [ stage "select" [ "in" ] "in(x)" ]);
  (* YS705: output names no stage. *)
  check_codes "output unknown" [ "YS705" ]
    (P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "ghost" |]
       [ stage "s" [ "in" ] "in(x)" ]);
  (* YS706: dead stage is a warning, not an error. *)
  let dead =
    P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "out" |]
      [ stage "out" [ "in" ] "in(x)"; stage "unused" [ "in" ] "in(x)" ]
  in
  let ds = Lint.Program.program dead in
  Alcotest.(check bool) "YS706" true (has_code "YS706" ds);
  Alcotest.(check int) "dead stage is not an error" 0 (Lint.exit_code ds)

let test_parse_errors_located () =
  (* Stage-expression errors carry the 1-based line of the stage. *)
  let src = "program p\nrank 2\ninputs a\noutputs s\ns = min(a(y,x))\n" in
  (match P.parse src with
  | Ok _ -> Alcotest.fail "arity error should not parse"
  | Error (line, msg) ->
      Alcotest.(check int) "line" 5 line;
      Alcotest.(check bool) "stage prefix" true
        (Astring_contains.contains msg "stage s");
      Alcotest.(check bool) "arity" true
        (Astring_contains.contains msg "min expects 2 arguments"));
  (match Lint.Program.source src with
  | [ d ] ->
      Alcotest.(check string) "code" "YS700" d.D.code;
      Alcotest.(check bool) "line loc" true (d.D.loc = D.Line 5)
  | ds -> Alcotest.failf "expected one finding, got %d" (List.length ds));
  match P.parse "program p\nrank 2\nbogus directive\n" with
  | Ok _ -> Alcotest.fail "bad directive should not parse"
  | Error (line, _) -> Alcotest.(check int) "directive line" 3 line

let test_fuse_substitution () =
  let src =
    "program chain\nrank 1\ninputs in\noutputs out\n\
     a = in(x) + in(x+1)\nout = a(x-1) * a(x+1)\n"
  in
  let p = parse_ok src in
  let fused = P.fuse p ~inline:[ "a" ] in
  Alcotest.(check int) "one stage left" 1 (Array.length fused.P.stages);
  let out = fused.P.stages.(0) in
  let printed =
    Expr.to_c ~field_name:(fun i -> out.P.reads.(i)) out.P.expr
  in
  Alcotest.(check string) "offsets shifted"
    "(in(x-1) + in(x)) * (in(x+1) + in(x+2))" printed;
  (* Only inlinable stages may be fused. *)
  Alcotest.(check bool) "fuse rejects outputs" true
    (match P.fuse p ~inline:[ "out" ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_partitions_and_invariance () =
  let p = Suite.hdiff in
  let parts = P.partitions p in
  Alcotest.(check int) "capped at 4096" 4096 (List.length parts);
  Alcotest.(check (list string)) "first is unfused" [] (List.hd parts);
  (* Fusion never increases the accumulated input-halo requirement
     (per-stage halo boxes over-approximate anisotropic chains, and
     inlining removes that rounding), so grids sized for the unfused
     plan are sufficient for every partition. *)
  let base = (P.halo_plan p).P.input_halo in
  List.iter
    (fun inline ->
      let hp = P.halo_plan (P.fuse p ~inline) in
      List.iter
        (fun (name, need) ->
          let b = List.assoc name base in
          Array.iteri
            (fun d r ->
              if r > b.(d) then
                Alcotest.failf
                  "fusing [%s] grew %s's halo need in dim %d: %d > %d"
                  (String.concat " " inline) name d r b.(d))
            need)
        hp.P.input_halo)
    [ [ "ulap" ]; [ "ufli"; "uflj" ]; P.inlinable p ];
  (* ...and it genuinely shrinks when inlining collapses an
     anisotropic pair: materialized, ulap's box must cover ufli's
     x-reach and uflj's y-reach at once. *)
  let hp = P.halo_plan (P.fuse p ~inline:[ "ufli"; "uflj" ]) in
  Alcotest.(check (array int)) "uin halo shrinks under ufli+uflj"
    [| 2; 2 |]
    (List.assoc "uin" hp.P.input_halo)

let test_text_round_trip () =
  let p = Suite.hdiff in
  let p' = parse_ok (P.to_text p) in
  Alcotest.(check string) "to_text fixpoint" (P.to_text p) (P.to_text p');
  (* The shipped example file is the same program. *)
  let src =
    In_channel.with_open_text (Repo_file.path "examples/hdiff.prog")
      In_channel.input_all
  in
  let shipped = parse_ok src in
  Alcotest.(check string) "examples/hdiff.prog matches the suite"
    (P.to_text p) (P.to_text shipped);
  Alcotest.(check int) "shipped file lints clean" 0
    (Lint.exit_code (Lint.Program.source src))

let test_grids_gate_ys704 () =
  let p = Suite.hdiff in
  let dims = [| 8; 8 |] in
  let hp = P.halo_plan p in
  let full =
    List.map
      (fun (name, halo) -> (name, Grid.create ~halo ~dims ()))
      hp.P.input_halo
  in
  Alcotest.(check (list string)) "sufficient halos pass" []
    (codes (Lint.Program.grids p ~inputs:full));
  (* Thin uin halo. *)
  let thin =
    List.map
      (fun (name, g) ->
        if name = "uin" then (name, Grid.create ~halo:[| 2; 2 |] ~dims ())
        else (name, g))
      full
  in
  Alcotest.(check bool) "thin halo is YS704" true
    (has_code "YS704" (Lint.Program.grids p ~inputs:thin));
  (* Missing input. *)
  let missing = List.filter (fun (n, _) -> n <> "mask") full in
  Alcotest.(check bool) "missing input is YS704" true
    (has_code "YS704" (Lint.Program.grids p ~inputs:missing));
  (* Extent disagreement. *)
  let skewed =
    List.map
      (fun (name, g) ->
        if name = "vin" then
          (name, Grid.create ~halo:[| 3; 3 |] ~dims:[| 8; 9 |] ())
        else (name, g))
      full
  in
  Alcotest.(check bool) "dims mismatch is YS409" true
    (has_code "YS409" (Lint.Program.grids p ~inputs:skewed))

let test_rules_table_has_ys7xx () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " in Lint.rules") true
        (List.exists (fun (c, _, _) -> c = code) Lint.rules))
    [ "YS700"; "YS701"; "YS702"; "YS703"; "YS704"; "YS705"; "YS706" ]

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

let hdiff_inputs ?(seed = 11) ~dims () =
  let hp = P.halo_plan Suite.hdiff in
  let space = Grid.fresh_space () in
  ( space,
    List.map
      (fun (name, halo) ->
        let rng = Prng.create ~seed:(seed + Hashtbl.hash name) in
        let g = Grid.create ~space ~halo ~dims () in
        Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
        Grid.halo_dirichlet g 0.0;
        (name, g))
      hp.P.input_halo )

let dump_outputs (r : Prog.result) =
  List.map
    (fun (name, g) ->
      let d = Grid.dims g in
      let vals = ref [] in
      for y = d.(0) - 1 downto 0 do
        for x = d.(1) - 1 downto 0 do
          vals := Grid.get g [| y; x |] :: !vals
        done
      done;
      (name, !vals))
    r.Prog.outputs

let run_partition ?pool ?config ~backend ~dims inline =
  let fused = P.fuse Suite.hdiff ~inline in
  let space, inputs = hdiff_inputs ~dims () in
  dump_outputs (Prog.run ?pool ?config ~backend ~space fused ~inputs)

let test_executor_stats () =
  let dims = [| 8; 9 |] in
  let space, inputs = hdiff_inputs ~dims () in
  let r = Prog.run ~space Suite.hdiff ~inputs in
  Alcotest.(check int) "stage runs" 16 (List.length r.Prog.stages);
  Alcotest.(check int) "outputs" 4 (List.length r.Prog.outputs);
  let points name =
    let sr = List.find (fun s -> s.Prog.stage = name) r.Prog.stages in
    sr.Prog.stats.Sweep.points
  in
  (* ulap runs extended by its accumulated (2,2) halo; uout is interior
     only. *)
  Alcotest.(check int) "ulap extended points" ((8 + 4) * (9 + 4))
    (points "ulap");
  Alcotest.(check int) "ufli extended points" (8 * (9 + 2)) (points "ufli");
  Alcotest.(check int) "uout interior points" (8 * 9) (points "uout")

let test_executor_gates () =
  (* Cyclic program: refused before any allocation. *)
  let mk_expr reads src =
    let fields = List.mapi (fun i n -> (n, i)) reads in
    match Parser.parse_expr ~fields ~rank:1 src with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let cyclic =
    P.v ~name:"p" ~rank:1 ~inputs:[| "in" |] ~outputs:[| "out" |]
      [ { P.name = "a"; reads = [| "b" |]; expr = mk_expr [ "b" ] "b(x)" };
        { P.name = "b"; reads = [| "a" |]; expr = mk_expr [ "a" ] "a(x)" };
        { P.name = "out"; reads = [| "a" |]; expr = mk_expr [ "a" ] "a(x)" }
      ]
  in
  let input = Grid.create ~dims:[| 8 |] () in
  (match Prog.run cyclic ~inputs:[ ("in", input) ] with
  | _ -> Alcotest.fail "cyclic program executed"
  | exception Lint.Gate_error msg ->
      Alcotest.(check bool) "YS702" true
        (Astring_contains.contains msg "YS702"));
  (* Thin input halos: refused with the program-level YS704. *)
  let dims = [| 8; 8 |] in
  let thin =
    List.map
      (fun (name, _) -> (name, Grid.create ~dims ()))
      (P.halo_plan Suite.hdiff).P.input_halo
  in
  match Prog.run Suite.hdiff ~inputs:thin with
  | _ -> Alcotest.fail "thin halos executed"
  | exception Lint.Gate_error msg ->
      Alcotest.(check bool) "YS704" true
        (Astring_contains.contains msg "YS704")

(* The hdiff outputs as the oracle computes them, every intermediate
   recomputed on the spot from the same inputs. *)
let oracle_outputs ~dims =
  Oracle.program Suite.hdiff ~inputs:(snd (hdiff_inputs ~dims ()))

let test_executor_backends_and_pool () =
  let dims = [| 10; 12 |] in
  let reference = oracle_outputs ~dims in
  List.iter
    (fun backend ->
      Alcotest.(check bool) "backend bit-identical" true
        (run_partition ~backend ~dims [] = reference))
    [ Sweep.Plan_backend; Sweep.Codegen_backend ];
  let config = Config.v ~block:[| 0; 4 |] () in
  let pooled =
    Pool.with_pool ~domains:3 (fun pool ->
        run_partition ~pool ~config ~backend:Sweep.Plan_backend ~dims [])
  in
  Alcotest.(check bool) "pooled bit-identical" true (pooled = reference)

(* The tentpole property: every legal fusion partition of hdiff is
   bit-identical to the oracle on every backend. *)
let fusion_bit_identity =
  QCheck.Test.make ~name:"fusion partitions bit-identical on all backends"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let dims = [| 10; 12 |] in
      let inlinable = P.inlinable Suite.hdiff in
      let inline =
        List.filter (fun _ -> Prng.int rng ~bound:2 = 1) inlinable
      in
      let reference = oracle_outputs ~dims in
      List.for_all
        (fun backend -> run_partition ~backend ~dims inline = reference)
        [ Sweep.Plan_backend; Sweep.Codegen_backend ])

(* ------------------------------------------------------------------ *)
(* ECM-ranked fusion                                                   *)

(* Reference scoring: fuse the whole program and price every stage
   directly — what the per-component composition must reproduce. *)
let direct_time m p ~dims ~config inline =
  let fp = P.fuse p ~inline in
  let hp = P.halo_plan fp in
  Array.to_list fp.P.stages
  |> List.map (fun (s : P.stage) ->
         let ext = List.assoc s.P.name hp.P.stage_ext in
         let edims = Array.mapi (fun d e -> dims.(d) + (2 * e)) ext in
         let a = Analysis.of_spec (P.stage_spec fp s) in
         let pred = Model.predict m a ~dims:edims ~config in
         let points =
           float_of_int (Array.fold_left (fun acc d -> acc * d) 1 edims)
         in
         points /. pred.Model.lups_chip)
  |> List.fold_left ( +. ) 0.0

(* Two-stage chain. *)
let chain_program () =
  parse_ok
    "program chain\nrank 1\ninputs in\noutputs out\n\
     a = in(x-1) + in(x+1)\nout = a(x-1) + a(x+1)\n"

let test_rank_partitions_exact () =
  (* Two-stage chain: the ranking must match hand-computed model times
     for both partitions. *)
  let p = chain_program () in
  let m = Machine.test_chip in
  let dims = [| 64 |] in
  let config = Config.default in
  let ranked = Advisor.rank_partitions m p ~dims ~config in
  Alcotest.(check int) "two partitions" 2 (List.length ranked);
  List.iter
    (fun (pt : Advisor.partition) ->
      let expect = direct_time m p ~dims ~config pt.Advisor.inline in
      Alcotest.(check bool)
        ("predicted time matches direct scoring for ["
        ^ String.concat " " pt.Advisor.inline
        ^ "]")
        true
        (Float.abs (pt.Advisor.time -. expect)
        <= 1e-12 *. Float.abs expect))
    ranked;
  (* Sorted fastest first, and best_partition is the head. *)
  let times = List.map (fun (pt : Advisor.partition) -> pt.Advisor.time) ranked in
  Alcotest.(check bool) "sorted" true (List.sort compare times = times);
  let bp = Advisor.best_partition m p ~dims ~config in
  Alcotest.(check bool) "best is head" true
    (bp.Advisor.inline = (List.hd ranked).Advisor.inline)

(* Two output stages: 1.0 + (2.0 + (... (8.0 + sq))) and
   (((1.0 + 2.0) + ...) + 8.0) + sq, with sq = a(y,x)*a(y,x). *)
let nested_sums_program () =
  let consts = List.init 8 (fun i -> Printf.sprintf "%d.0" (i + 1)) in
  let sq = "a(y,x)*a(y,x)" in
  let right = List.fold_right (fun c acc -> c ^ " + (" ^ acc ^ ")") consts sq in
  let left =
    List.fold_left
      (fun acc c -> "(" ^ acc ^ " + " ^ c ^ ")")
      (List.hd consts) (List.tl consts)
    ^ " + " ^ sq
  in
  parse_ok
    (Printf.sprintf
       "program sums\nrank 2\ninputs a\noutputs s1 s2\ns1 = %s\ns2 = %s\n"
       right left)

let test_rank_partitions_nested_sums () =
  (* A right-nested sum and the left-nested sum of the same terms differ
     in evaluation order and in billed flops (the left-nested constants
     fold away), so the ranking's per-stage memo must not merge them. *)
  let p = nested_sums_program () in
  let m = Machine.scaled ~factor:8 Machine.cascade_lake in
  let dims = [| 16; 16 |] in
  let config = Config.v ~threads:1 () in
  let best = Advisor.best_partition m p ~dims ~config in
  let direct name =
    let s = Option.get (P.find_stage p name) in
    let pred = Model.predict m (Analysis.of_spec (P.stage_spec p s)) ~dims ~config in
    256.0 /. pred.Model.lups_chip
  in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " gets its own predicted time")
        (Printf.sprintf "%h" (direct name))
        (Printf.sprintf "%h" (List.assoc name best.Advisor.stage_times)))
    [ "s1"; "s2" ]

let test_rank_partitions_hdiff () =
  let p = Suite.hdiff in
  let m = Machine.test_chip in
  let dims = [| 32; 32 |] in
  let config = Config.default in
  let ranked = Advisor.rank_partitions m p ~dims ~config in
  Alcotest.(check int) "full product space" 4096 (List.length ranked);
  let times = List.map (fun (pt : Advisor.partition) -> pt.Advisor.time) ranked in
  Alcotest.(check bool) "sorted ascending" true
    (List.sort compare times = times);
  (* stage count bookkeeping and per-stage decomposition *)
  List.iteri
    (fun i (pt : Advisor.partition) ->
      if i < 16 then begin
        Alcotest.(check int) "stage count" pt.Advisor.stages
          (List.length pt.Advisor.stage_times);
        let sum =
          List.fold_left (fun a (_, t) -> a +. t) 0.0 pt.Advisor.stage_times
        in
        Alcotest.(check bool) "time = sum of stage times" true
          (Float.abs (sum -. pt.Advisor.time) <= 1e-12 *. sum)
      end)
    ranked;
  (* Per-component composition agrees with whole-program scoring on a
     mixed partition. *)
  let mixed = [ "ulap"; "ufli"; "vflj"; "pplap"; "ppfli"; "ppflj" ] in
  let entry =
    List.find
      (fun (pt : Advisor.partition) ->
        List.sort compare pt.Advisor.inline = List.sort compare mixed)
      ranked
  in
  let expect = direct_time m p ~dims ~config mixed in
  Alcotest.(check bool) "composition exact" true
    (Float.abs (entry.Advisor.time -. expect) <= 1e-12 *. expect)

(* ------------------------------------------------------------------ *)
(* The partition ranking against [Advisor_reference], bit for bit: each
   entry's inline list, stage count, time and stage times (floats in
   hex), and the model cache's hits and misses.                         *)

module Cache = Yasksite_ecm.Cache

let render_partition (pt : Advisor.partition) =
  Printf.sprintf "[%s] %d stages %h {%s}"
    (String.concat " " pt.Advisor.inline)
    pt.Advisor.stages pt.Advisor.time
    (String.concat "; "
       (List.map (fun (n, t) -> Printf.sprintf "%s %h" n t)
          pt.Advisor.stage_times))

(* Equal as [render_partition] renders them, without rendering. *)
let same_partition (a : Advisor.partition) (b : Advisor.partition) =
  let bits = Int64.bits_of_float in
  a.Advisor.inline = b.Advisor.inline
  && a.Advisor.stages = b.Advisor.stages
  && bits a.Advisor.time = bits b.Advisor.time
  && List.equal
       (fun (n, t) (n', t') -> n = n' && bits t = bits t')
       a.Advisor.stage_times b.Advisor.stage_times

(* [None] when [p]'s ranking, and its head through [best_partition],
   equal the reference's entry for entry, with equal cache counts; else
   the first difference. *)
let ranking_disagreement m p ~dims ~config =
  let cache = Cache.create () and ref_cache = Cache.create () in
  let ours = Advisor.rank_partitions ~cache m p ~dims ~config
  and theirs =
    Advisor_reference.rank_partitions ~cache:ref_cache m p ~dims ~config
  in
  let counts c =
    let s = Cache.stats c in
    Printf.sprintf "%d hits, %d misses" s.Cache.hits s.Cache.misses
  in
  let best = Advisor.best_partition m p ~dims ~config in
  let differ what o t =
    Some
      (Printf.sprintf "%s:\n  ours      %s\n  reference %s" what
         (render_partition o) (render_partition t))
  in
  let rec first_diff i = function
    | o :: os, t :: ts ->
        if same_partition o t then first_diff (i + 1) (os, ts)
        else differ (Printf.sprintf "entry %d" i) o t
    | [], [] -> None
    | _ ->
        Some
          (Printf.sprintf "%d entries, reference %d" (List.length ours)
             (List.length theirs))
  in
  let what =
    match first_diff 0 (ours, theirs) with
    | Some d -> Some d
    | None when counts cache <> counts ref_cache ->
        Some
          (Printf.sprintf "cache: ours %s, reference %s" (counts cache)
             (counts ref_cache))
    | None when not (same_partition best (List.hd theirs)) ->
        differ "best_partition against the reference's head" best
          (List.hd theirs)
    | None -> None
  in
  Option.map
    (fun d ->
      Printf.sprintf "%s on %s, %s, %s: %s" p.P.name m.Machine.name
        (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
        (Config.describe config) d)
    what

let partition_machines =
  lazy
    (Array.of_list
       ([ Machine.test_chip;
          Machine.scaled ~factor:8 Machine.cascade_lake;
          Machine.scaled ~factor:8 Machine.rome ]
       @ Test_schedule.shipped_machines ()))

let rank_partitions_equals_reference =
  QCheck.Test.make ~name:"rank_partitions = reference" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let pick a = a.(Prng.int rng ~bound:(Array.length a)) in
      let m = pick (Lazy.force partition_machines) in
      let dims = Array.init 2 (fun _ -> 16 + Prng.int rng ~bound:241) in
      let threads = 1 + Prng.int rng ~bound:m.Machine.cores in
      (* linear, or a fold the advisor's space offers *)
      let folds =
        Array.of_list
          (None
           :: List.sort_uniq compare
                (List.filter_map
                   (fun (c : Config.t) -> Option.map Option.some c.Config.fold)
                   (Advisor.space m ~dims ~threads ~rank:2)))
      in
      let config = Config.v ?fold:(pick folds) ~threads () in
      match ranking_disagreement m Suite.hdiff ~dims ~config with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* hdiff with a fifth advected field [q], a copy of [u]'s chain: five
   components of 8 options, 32,768 partitions cut to 4096. *)
let hdiff5 () =
  let h = Suite.hdiff in
  let q name =
    if name.[0] = 'u' then "q" ^ String.sub name 1 (String.length name - 1)
    else name
  in
  let copies =
    Array.to_list h.P.stages
    |> List.filter (fun (s : P.stage) -> s.P.name.[0] = 'u')
    |> List.map (fun (s : P.stage) ->
           { s with P.name = q s.P.name; reads = Array.map q s.P.reads })
  in
  { h with
    P.inputs = Array.append h.P.inputs [| "qin" |];
    outputs = Array.append h.P.outputs [| "qout" |];
    stages = Array.append h.P.stages (Array.of_list copies) }

let test_rank_partitions_fixed_equal_reference () =
  (* [s] forms a component with no inlinable stage, ahead of the
     two-option component {m, t}. *)
  let lone =
    parse_ok
      "program lone\nrank 2\ninputs a b\noutputs s t\n\
       s = a(y,x-1) + a(y,x+1)\nm = b(y-1,x) * b(y+1,x)\n\
       t = m(y,x) + m(y,x+1)\n"
  in
  let h5 = hdiff5 () in
  Alcotest.(check int) "hdiff5 is a clean program" 0 (List.length (P.issues h5));
  Alcotest.(check int) "hdiff5 components" 5 (List.length (P.components h5));
  let machines =
    [ Machine.test_chip; Machine.scaled ~factor:8 Machine.cascade_lake ]
  in
  List.iter
    (fun (p, dims) ->
      List.iter
        (fun m ->
          List.iter
            (fun threads ->
              let config = Config.v ~threads () in
              match ranking_disagreement m p ~dims ~config with
              | None -> ()
              | Some d -> Alcotest.fail d)
            [ 1; m.Machine.cores ])
        machines)
    [ (chain_program (), [| 64 |]);
      (nested_sums_program (), [| 16; 16 |]);
      (lone, [| 48; 40 |]);
      (h5, [| 256; 256 |]) ]

let suite =
  [ Alcotest.test_case "select/min/max semantics" `Quick
      test_select_semantics;
    Alcotest.test_case "builtin arity errors" `Quick
      test_builtin_arity_errors;
    Alcotest.test_case "builtin caret spans" `Quick test_builtin_caret_spans;
    Alcotest.test_case "extended sweep embedding" `Quick
      test_extended_sweep_embedding;
    Alcotest.test_case "extended gate YS404" `Quick test_extended_gate_ys404;
    Alcotest.test_case "extended sanitize rejected" `Quick
      test_extended_sanitize_rejected;
    Alcotest.test_case "extended pool bit-identity" `Quick
      test_extended_pool_bit_identity;
    Alcotest.test_case "hdiff structure" `Quick test_hdiff_structure;
    Alcotest.test_case "hdiff halo plan" `Quick test_hdiff_halo_plan;
    Alcotest.test_case "issue codes YS701-706" `Quick test_issue_codes;
    Alcotest.test_case "parse errors located (YS700)" `Quick
      test_parse_errors_located;
    Alcotest.test_case "fuse substitution" `Quick test_fuse_substitution;
    Alcotest.test_case "partitions and halo invariance" `Quick
      test_partitions_and_invariance;
    Alcotest.test_case "text round-trip and shipped example" `Quick
      test_text_round_trip;
    Alcotest.test_case "grids gate YS704/YS409" `Quick test_grids_gate_ys704;
    Alcotest.test_case "YS7xx in the rules table" `Quick
      test_rules_table_has_ys7xx;
    Alcotest.test_case "executor stats" `Quick test_executor_stats;
    Alcotest.test_case "executor gates" `Quick test_executor_gates;
    Alcotest.test_case "executor backends and pool" `Quick
      test_executor_backends_and_pool;
    qt fusion_bit_identity;
    Alcotest.test_case "rank_partitions exact (2-stage)" `Quick
      test_rank_partitions_exact;
    Alcotest.test_case "rank_partitions nested sums" `Quick
      test_rank_partitions_nested_sums;
    Alcotest.test_case "rank_partitions hdiff" `Quick
      test_rank_partitions_hdiff;
    qt rank_partitions_equals_reference;
    Alcotest.test_case "rank_partitions = reference, fixed programs" `Quick
      test_rank_partitions_fixed_equal_reference ]
