(* The YS6xx translation validator.

   Contract under test: every legal kernel Codegen emits — the whole
   suite, both layouts — validates with zero findings (no false
   rejections); the checked AST round-trips through its own printer;
   every seeded miscompile class is rejected with its expected stable
   code (100% kill rate); the engine refuses to compile, load or run a
   source the validator rejects (falling back bit-identically to the
   interpreter); and every resolution validates, a store revival
   included. *)

module Stencil = Yasksite_stencil
module Grid = Yasksite_grid.Grid
module Spec = Stencil.Spec
module Codegen = Stencil.Codegen
module Ast = Stencil.Kernel_ast
module Lint = Yasksite_lint.Lint
module NL = Yasksite_lint.Native_lint
module D = Yasksite_lint.Diagnostic
module Mis = Yasksite_faults.Miscompile
module Native = Yasksite_engine.Native
module Sweep = Yasksite_engine.Sweep
module Store = Yasksite_store.Store
module Analysis = Stencil.Analysis
module Lower = Stencil.Lower
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

(* Every (suite stencil × layout) with its plan, variant, grids and
   emitted source — the corpus all the whole-suite properties run
   over. *)
let emitted_suite () =
  List.concat_map
    (fun spec ->
      let spec = Stencil.Suite.resolve_defaults spec in
      let plan = Lower.lower spec in
      let rank = spec.Spec.rank in
      let halo = Analysis.halo (Analysis.of_spec spec) in
      let dims = Array.init rank (fun i -> max 8 ((2 * halo.(i)) + 1)) in
      List.filter_map
        (fun layout ->
          let space = Grid.fresh_space () in
          let mk () = Grid.create ~space ~halo ~layout ~dims () in
          let inputs = Array.init spec.Spec.n_fields (fun _ -> mk ()) in
          let output = mk () in
          let v = Codegen.variant_of ~plan ~inputs ~output in
          match Codegen.source ~plan v with
          | Error _ -> None
          | Ok src -> Some (spec, plan, v, inputs, src))
        [ Grid.Linear;
          Grid.Folded
            (Array.init rank (fun i -> if i = rank - 1 then 4 else 1)) ])
    Stencil.Suite.all

(* ------------------------------------------------------------------ *)
(* No false rejections, and the grammar round-trips.                   *)

let test_suite_validates () =
  let n = ref 0 in
  List.iter
    (fun (spec, plan, v, inputs, src) ->
      incr n;
      match NL.check ~plan ~variant:v ~inputs src with
      | [] -> ()
      | ds ->
          Alcotest.failf "%s: legal kernel rejected: %s" spec.Spec.name
            (String.concat "; "
               (List.map (fun d -> d.D.code ^ " " ^ d.D.message) ds)))
    (emitted_suite ());
  (* both layouts of all nine suite stencils actually emitted *)
  Alcotest.(check bool) "full corpus emitted" true (!n >= 18)

let test_ast_roundtrip () =
  List.iter
    (fun (spec, _, _, _, src) ->
      match Ast.parse src with
      | Error (msg, line) ->
          Alcotest.failf "%s: emitted source does not parse (line %d: %s)"
            spec.Spec.name line msg
      | Ok ast -> (
          match Ast.parse (Ast.print ~header:"reprinted" ast) with
          | Error (msg, line) ->
              Alcotest.failf "%s: printed AST does not re-parse (line %d: %s)"
                spec.Spec.name line msg
          | Ok ast' ->
              if ast' <> ast then
                Alcotest.failf "%s: AST does not round-trip" spec.Spec.name))
    (emitted_suite ())

(* ------------------------------------------------------------------ *)
(* Mutation corpus: every class killed, with its expected code.        *)

let test_mutation_kill_rate () =
  let total = ref 0 in
  let by_class = Hashtbl.create 8 in
  List.iter
    (fun (spec, plan, v, inputs, src) ->
      List.iter
        (fun (cls, mutant) ->
          incr total;
          Hashtbl.replace by_class cls ();
          let codes =
            List.map
              (fun d -> d.D.code)
              (NL.check ~plan ~variant:v ~inputs mutant)
          in
          let want = Mis.expected_code cls in
          if not (List.mem want codes) then
            Alcotest.failf "%s: %s mutant survived (want %s, got [%s])"
              spec.Spec.name (Mis.class_name cls) want
              (String.concat "," codes))
        (Mis.corpus ~seed:42 ~per_class:3 src))
    (emitted_suite ());
  Alcotest.(check bool)
    "at least 25 mutants exercised" true (!total >= 25);
  Alcotest.(check bool)
    "at least 5 distinct classes exercised" true
    (Hashtbl.length by_class >= 5)

(* A mutant differs from the original by construction, so its digest
   can never satisfy an original's certificate. *)
let test_mutants_are_distinct () =
  List.iter
    (fun (_, _, _, _, src) ->
      List.iter
        (fun (cls, mutant) ->
          if mutant = src then
            Alcotest.failf "%s mutant is identical to its source"
              (Mis.class_name cls))
        (Mis.corpus ~seed:7 ~per_class:2 src))
    (emitted_suite ())

(* Mutation is deterministic per (seed, class, source). *)
let test_mutation_deterministic () =
  match emitted_suite () with
  | [] -> Alcotest.fail "empty suite"
  | (_, _, _, _, src) :: _ ->
      List.iter
        (fun cls ->
          match
            (Mis.mutate ~seed:11 cls src, Mis.mutate ~seed:11 cls src)
          with
          | Ok a, Ok b -> Alcotest.(check string) "same mutant" a b
          | Error a, Error b -> Alcotest.(check string) "same refusal" a b
          | _ -> Alcotest.fail "mutate is not deterministic")
        Mis.classes

(* ------------------------------------------------------------------ *)
(* Hex-float literals round-trip bit-exactly through the grammar.      *)

let lit_roundtrip_ast f =
  { Ast.row_binds = [ Ast.Bind_data { name = 0; src = 0 };
                  Ast.Bind_row { name = 0; src = 0 } ];
    row_out = Ast.Out_unit { lp = 1 };
    row_expr = Ast.Bin (Ast.Mul, Ast.Lit f,
                        Ast.Get (Ast.Unit_addr { data = 0; row = 0; shift = 0 }));
    reg_name = "yasksite.kern.test" }

let hex_float_roundtrip =
  QCheck.Test.make
    ~name:"float literals round-trip the printed grammar bit-exactly"
    ~count:500
    QCheck.(pair int64 bool)
    (fun (bits, negate) ->
      let f = Int64.float_of_bits bits in
      let f = if negate then -.f else f in
      if Float.is_nan f then true
        (* Codegen refuses NaN coefficients, and the grammar has no
           [nan] literal (see "bare and nan literals are YS600"). *)
      else
        match Ast.parse (Ast.print ~header:"reprinted" (lit_roundtrip_ast f)) with
        | Error _ -> false
        | Ok ast -> (
            match ast.Ast.row_expr with
            | Ast.Bin (_, Ast.Lit f', _) ->
                Int64.bits_of_float f' = Int64.bits_of_float f
            | _ -> false))

(* ------------------------------------------------------------------ *)
(* Rule-table integration: the YS6xx family is enumerable.             *)

let test_rules_enumerate_ys6xx () =
  let codes = List.map (fun (c, _, _) -> c) Lint.rules in
  List.iter
    (fun c ->
      if not (List.mem c codes) then
        Alcotest.failf "rule table lacks %s" c)
    [ "YS600"; "YS601"; "YS602"; "YS603"; "YS604"; "YS605"; "YS606";
      "YS607"; "YS608"; "YS610"; "YS611"; "YS612" ];
  let json = D.rules_to_json Lint.rules in
  Alcotest.(check bool)
    "JSON rule dump names YS612" true
    (Astring_contains.contains json "YS612");
  let text = D.rules_to_text Lint.rules in
  Alcotest.(check bool)
    "text rule dump names YS600" true
    (Astring_contains.contains text "YS600")

(* ------------------------------------------------------------------ *)
(* The engine gate: a rejected source never runs.                      *)

let with_tmp_store f =
  let root = Filename.temp_file "yasksite-nl-test" "" in
  Sys.remove root;
  let finally () =
    Native.reset_for_tests ();
    let rec rm p =
      if Sys.is_directory p then begin
        Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
    in
    try rm root with Sys_error _ | Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      Native.reset_for_tests ();
      let store = Store.open_root root in
      Native.set_store (Some store);
      f root store)

let heat1 =
  Spec.v ~name:"heat1" ~rank:1
    Stencil.Dsl.(
      c 0.25 *: fld [ -1 ] +: (c 0.5 *: fld [ 0 ]) +: (c 0.25 *: fld [ 1 ]))

let make_grid ~halo ~dims seed =
  let rng = Prng.create ~seed in
  let g = Grid.create ~halo ~dims () in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.25;
  g

(* One codegen-backend sweep; returns whether it is bit-identical to
   the plan interpreter (it must be, kernel or fallback). *)
let sweep_codegen spec ~seed =
  let halo = Analysis.halo (Analysis.of_spec spec) in
  let dims = [| 18 |] in
  let a = make_grid ~halo ~dims seed in
  let o = Grid.create ~halo ~dims () in
  ignore
    (Sweep.run ~backend:Sweep.Codegen_backend spec ~inputs:[| a |] ~output:o);
  let p = Grid.create ~halo ~dims () in
  let a' = make_grid ~halo ~dims seed in
  ignore (Sweep.run ~backend:Sweep.Plan_backend spec ~inputs:[| a' |] ~output:p);
  Grid.max_abs_diff o p = 0.0

let coeff_mutant src =
  match Mis.mutate ~seed:5 Mis.Coeff_perturb src with
  | Ok m -> m
  | Error _ -> src

let test_gate_rejects_miscompile () =
  with_tmp_store @@ fun _root _store ->
  if Native.available () then begin
    (* Inject a real miscompile into the resolution path: the validator
       must reject it, the engine must fall back, and the sweep must
       stay bit-identical via the interpreter. *)
    Native.set_source_transform (Some coeff_mutant);
    Alcotest.(check bool)
      "sweep bit-identical via interpreter fallback" true
      (sweep_codegen heat1 ~seed:3);
    let s = Native.stats () in
    Alcotest.(check bool)
      "validator rejected the mutant" true
      (s.Native.validator_rejections > 0);
    Alcotest.(check int) "nothing was compiled" 0 s.Native.compiles;
    Alcotest.(check bool) "fallback counted" true (s.Native.fallbacks > 0)
  end

let test_gate_validates_every_resolution () =
  with_tmp_store @@ fun _root store ->
  if Native.available () then begin
    assert (sweep_codegen heat1 ~seed:4);
    let s1 = Native.stats () in
    Alcotest.(check int) "cold resolution validates once" 1
      s1.Native.validations;
    Alcotest.(check int) "no rejection" 0 s1.Native.validator_rejections;
    Alcotest.(check int) "one compile" 1 s1.Native.compiles;
    (* Warm: new process state (memo cleared) revives the kernel from
       the store, and the validator still runs first. *)
    Native.reset_for_tests ();
    Native.set_store (Some store);
    assert (sweep_codegen heat1 ~seed:4);
    let s2 = Native.stats () in
    Alcotest.(check int) "warm resolution validates too" 1
      s2.Native.validations;
    Alcotest.(check int) "warm comes from the store" 1 s2.Native.store_hits;
    Alcotest.(check int) "warm compiles nothing" 0 s2.Native.compiles;
    (* A changed source under the same key is refused before the stored
       kernel loads. *)
    Native.reset_for_tests ();
    Native.set_store (Some store);
    Native.set_source_transform (Some coeff_mutant);
    assert (sweep_codegen heat1 ~seed:4);
    let s3 = Native.stats () in
    Alcotest.(check int) "changed source rejected" 1
      s3.Native.validator_rejections;
    Alcotest.(check int) "stored kernel not loaded" 0 s3.Native.loads;
    Alcotest.(check int) "no store hit" 0 s3.Native.store_hits
  end

(* A headerless kern-v1 payload is stale like any other: resolution
   recompiles instead of loading it, and the write-through restores the
   header. *)
let test_headerless_payload_recompiles () =
  with_tmp_store @@ fun _root store ->
  if Native.available () then begin
    assert (sweep_codegen heat1 ~seed:7);
    Alcotest.(check int) "cold compile" 1 (Native.stats ()).Native.compiles;
    let strip_header raw =
      let rec after_lines i n =
        if n = 0 then i
        else after_lines (String.index_from raw i '\n' + 1) (n - 1)
      in
      let i = after_lines 0 4 in
      String.sub raw i (String.length raw - i)
    in
    (match
       Store.fold_ns store ~ns:Native.store_ns ~init:[]
         (fun acc ~key ~payload -> (key, payload) :: acc)
     with
    | [ (key, payload) ] ->
        Store.put store ~ns:Native.store_ns ~key (strip_header payload)
    | es ->
        Alcotest.failf "expected one kern-v1 entry, found %d"
          (List.length es));
    Native.reset_for_tests ();
    Native.set_store (Some store);
    assert (sweep_codegen heat1 ~seed:7);
    let s = Native.stats () in
    Alcotest.(check int) "recompiled once" 1 s.Native.compiles;
    Alcotest.(check int) "no store hit" 0 s.Native.store_hits;
    Alcotest.(check int) "counted as a load error" 1 s.Native.load_errors;
    Alcotest.(check (list string))
      "slot repaired" [] (Native.stale_kernels store)
  end

(* ------------------------------------------------------------------ *)
(* Stale kern-v1 payload detection.                                    *)

let test_payload_staleness () =
  let tc = Some ("ocamlfind version 9.99.9", [ "-shared"; "-w"; "-a" ]) in
  Alcotest.(check bool)
    "legacy headerless payload is stale" true
    (Native.payload_stale ~toolchain:tc "\xca\xferaw cmxs bytes");
  Alcotest.(check bool)
    "header with another compiler version is stale" true
    (Native.payload_stale ~toolchain:tc
       (Printf.sprintf "yasksite-kern-payload v1\n%d\nocamlfind version 1.0.0\n-shared -w -a\nbytes"
          Codegen.abi));
  Alcotest.(check bool)
    "matching header is fresh" false
    (Native.payload_stale ~toolchain:tc
       (Printf.sprintf "yasksite-kern-payload v1\n%d\nocamlfind version 9.99.9\n-shared -w -a\nbytes"
          Codegen.abi));
  (* ABI 1 units registered a pair of functions; the loader casts what
     it finds to one row kernel, so such a payload must never load, even
     when the toolchain matches. *)
  Alcotest.(check int) "codegen ABI" 2 Codegen.abi;
  Alcotest.(check bool)
    "ABI 1 payload with a matching toolchain is stale" true
    (Native.payload_stale ~toolchain:tc
       "yasksite-kern-payload v1\n1\nocamlfind version 9.99.9\n-shared -w -a\nbytes");
  Alcotest.(check bool)
    "old codegen ABI is stale even without a toolchain" true
    (Native.payload_stale ~toolchain:None
       "yasksite-kern-payload v1\n0\nany\n-shared\nbytes")

let test_stale_scan_and_gc () =
  with_tmp_store @@ fun _root store ->
  (* A legacy (headerless) entry planted directly in kern-v1 is flagged
     stale and dropped by gc_stale, whatever the toolchain. *)
  Store.put store ~ns:Native.store_ns ~key:"legacy-key" "not a payload";
  Alcotest.(check bool)
    "legacy entry flagged" true
    (List.mem "legacy-key" (Native.stale_kernels store));
  let removed = Native.gc_stale store in
  Alcotest.(check bool) "stale entry removed" true (removed >= 1);
  Alcotest.(check bool)
    "gone from the store" true
    (Store.get store ~ns:Native.store_ns ~key:"legacy-key" = None);
  Alcotest.(check bool)
    "scan now clean of it" true
    (not (List.mem "legacy-key" (Native.stale_kernels store)))

let test_fresh_payload_not_stale_end_to_end () =
  with_tmp_store @@ fun _root store ->
  if Native.available () then begin
    assert (sweep_codegen heat1 ~seed:9);
    (* The freshly committed payload carries a current header: the
       stale scan must not flag it. *)
    Alcotest.(check (list string))
      "freshly compiled kernel is not stale" []
      (Native.stale_kernels store);
    (* And the counters must show the validator ran; CI checks the
       same counter end to end through [--stats-json]. *)
    let st = Native.stats () in
    Alcotest.(check int) "validations" 1 st.Native.validations;
    Alcotest.(check int)
      "validator_rejections" 0 st.Native.validator_rejections
  end

(* ------------------------------------------------------------------ *)
(* Validator refusals (YS612) and parse rejections (YS600).            *)

let test_unparseable_source_is_ys600 () =
  match emitted_suite () with
  | [] -> Alcotest.fail "empty suite"
  | (_, plan, v, inputs, src) :: _ ->
      let broken = src ^ "\nlet stray = ()\n" in
      (match NL.check ~plan ~variant:v ~inputs broken with
      | [ d ] -> Alcotest.(check string) "YS600" "YS600" d.D.code
      | ds ->
          Alcotest.failf "expected exactly one YS600, got %d findings"
            (List.length ds));
      match NL.validate ~plan ~variant:v ~inputs broken with
      | Ok () -> Alcotest.fail "validate must reject an unparseable unit"
      | Error _ -> ()

let replace_once s ~sub ~by =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Codegen puts every operation in its own parentheses, so the grammar
   has no precedence: an unparenthesized [+.] chain, which OCaml would
   still compile left-associated, does not parse. *)
let test_unparenthesized_chain_is_ys600 () =
  let spec =
    Spec.v ~name:"sum3" ~rank:1
      Stencil.Dsl.(fld [ -1 ] +: fld [ 0 ] +: fld [ 1 ])
  in
  let plan = Lower.lower spec in
  let inputs = [| Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () |] in
  let output = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  let v = Codegen.variant_of ~plan ~inputs ~output in
  let src =
    match Codegen.source ~plan v with Ok s -> s | Error e -> Alcotest.fail e
  in
  match Ast.parse src with
  | Ok { Ast.row_expr = Ast.Bin (Ast.Add, Ast.Bin (Ast.Add, a, b), c) as e; _ }
    ->
      let chain =
        Printf.sprintf "(%s +. %s +. %s)" (Ast.expr_str a) (Ast.expr_str b)
          (Ast.expr_str c)
      in
      let chained = replace_once src ~sub:(Ast.expr_str e) ~by:chain in
      (match NL.check ~plan ~variant:v ~inputs chained with
      | [ d ] -> Alcotest.(check string) "YS600" "YS600" d.D.code
      | ds ->
          Alcotest.failf "expected exactly one YS600, got [%s]"
            (String.concat "," (List.map (fun d -> d.D.code) ds)))
  | _ -> Alcotest.fail "expected a left-associated three-term sum"

(* Codegen writes every finite literal as [(%h)] and refuses NaN, so a
   bare float literal and the identifier [nan] are outside the grammar:
   both are parse rejections, not coefficient mismatches. *)
let test_bare_and_nan_literals_are_ys600 () =
  let spec = Stencil.Suite.resolve_defaults Stencil.Suite.heat_1d_3pt in
  match
    List.find_opt
      (fun (s, _, _, _, _) -> s.Spec.name = spec.Spec.name)
      (emitted_suite ())
  with
  | None -> Alcotest.fail "heat-1d-3pt not emitted"
  | Some (_, plan, v, inputs, src) ->
      let rec first_lit = function
        | Ast.Lit f -> Some f
        | Ast.Get _ -> None
        | Ast.Neg e -> first_lit e
        | Ast.Bin (_, a, b) | Ast.Fmin (a, b) | Ast.Fmax (a, b) -> (
            match first_lit a with Some _ as l -> l | None -> first_lit b)
        | Ast.Sel (c, a, b) -> (
            match first_lit c with
            | Some _ as l -> l
            | None -> (
                match first_lit a with Some _ as l -> l | None -> first_lit b))
      in
      let lit =
        match Ast.parse src with
        | Ok ast -> (
            match first_lit ast.Ast.row_expr with
            | Some f -> Printf.sprintf "%h" f
            | None -> Alcotest.fail "no literal in heat-1d-3pt")
        | Error _ -> Alcotest.fail "emitted unit does not parse"
      in
      List.iter
        (fun (what, by) ->
          let planted = replace_once src ~sub:("(" ^ lit ^ ")") ~by in
          match NL.check ~plan ~variant:v ~inputs planted with
          | [ d ] -> Alcotest.(check string) what "YS600" d.D.code
          | ds ->
              Alcotest.failf "%s: expected exactly one YS600, got [%s]" what
                (String.concat "," (List.map (fun d -> d.D.code) ds)))
        [ ("bare literal", lit); ("nan", "nan") ]

let test_unresolved_plan_is_ys612 () =
  let accesses = [| { Stencil.Expr.field = 0; offsets = [| 0 |] } |] in
  let plan =
    Stencil.Plan.v ~name:"sym" ~rank:1 ~n_fields:1 ~accesses
      ~code:[| Stencil.Plan.Load 0; Stencil.Plan.Sym "r"; Stencil.Plan.Mul |]
      ~depth:2
  in
  match emitted_suite () with
  | [] -> Alcotest.fail "empty suite"
  | (_, _, _, _, src) :: _ -> (
      let halo = [| 0 |] in
      let g = Grid.create ~halo ~dims:[| 8 |] () in
      let v =
        Codegen.variant_of ~plan ~inputs:[| g |] ~output:(Grid.create ~halo ~dims:[| 8 |] ())
      in
      match NL.check ~plan ~variant:v ~inputs:[| g |] src with
      | ds when List.exists (fun d -> d.D.code = "YS612") ds -> ()
      | ds ->
          Alcotest.failf "expected YS612 for a Sym-bearing plan, got [%s]"
            (String.concat "," (List.map (fun d -> d.D.code) ds)))

let suite =
  [ Alcotest.test_case "whole suite validates (no false rejections)" `Quick
      test_suite_validates;
    Alcotest.test_case "checked AST round-trips print/parse" `Quick
      test_ast_roundtrip;
    Alcotest.test_case "mutation corpus: 100% kill rate" `Quick
      test_mutation_kill_rate;
    Alcotest.test_case "mutants differ from their source" `Quick
      test_mutants_are_distinct;
    Alcotest.test_case "mutation is seed-deterministic" `Quick
      test_mutation_deterministic;
    qt hex_float_roundtrip;
    Alcotest.test_case "rule table enumerates YS6xx" `Quick
      test_rules_enumerate_ys6xx;
    Alcotest.test_case "engine gate rejects an injected miscompile" `Quick
      test_gate_rejects_miscompile;
    Alcotest.test_case "engine gate validates every resolution" `Quick
      test_gate_validates_every_resolution;
    Alcotest.test_case "headerless payload recompiles" `Quick
      test_headerless_payload_recompiles;
    Alcotest.test_case "payload staleness predicate" `Quick
      test_payload_staleness;
    Alcotest.test_case "stale kern-v1 scan and gc" `Quick
      test_stale_scan_and_gc;
    Alcotest.test_case "fresh payloads carry a current header" `Quick
      test_fresh_payload_not_stale_end_to_end;
    Alcotest.test_case "unparseable unit is YS600" `Quick
      test_unparseable_source_is_ys600;
    Alcotest.test_case "unparenthesized chain is YS600" `Quick
      test_unparenthesized_chain_is_ys600;
    Alcotest.test_case "bare and nan literals are YS600" `Quick
      test_bare_and_nan_literals_are_ys600;
    Alcotest.test_case "unevaluable plan is YS612" `Quick
      test_unresolved_plan_is_ys612 ]
