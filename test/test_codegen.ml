(* The plan→native codegen backend.

   Contract under test: a sweep on [Codegen_backend] — a natively
   compiled, fully unrolled specialization of the kernel plan — is
   bit-identical to the plan interpreter and to the tree-walking
   {!Oracle} across ranks, layouts, blocking, wavefronts and sanitized
   runs; the compiled artifact round-trips through the kern-v1 store
   schema (warm runs skip the compiler entirely); corrupted or garbage
   store entries recompile instead of loading; and a machine without a
   toolchain degrades to the plan interpreter with a warning, never a
   failure. Plus the satellite coverage: the backend parser and its
   precedence chain. *)

module Grid = Yasksite_grid.Grid
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Gen = Yasksite_stencil.Gen
module Dsl = Yasksite_stencil.Dsl
module Plan = Yasksite_stencil.Plan
module Expr = Yasksite_stencil.Expr
module Lower = Yasksite_stencil.Lower
module Codegen = Yasksite_stencil.Codegen
module Config = Yasksite_ecm.Config
module Machine = Yasksite_arch.Machine
module Hierarchy = Yasksite_cachesim.Hierarchy
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Sanitizer = Yasksite_engine.Sanitizer
module Native = Yasksite_engine.Native
module Store = Yasksite_store.Store
module Pool = Yasksite_util.Pool
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let all_backends = [ Sweep.Plan_backend; Sweep.Codegen_backend ]

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

let heat1 =
  Spec.v ~name:"heat1" ~rank:1
    Dsl.(c 0.25 *: fld [ -1 ] +: (c 0.5 *: fld [ 0 ]) +: (c 0.25 *: fld [ 1 ]))

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv name (match old with Some v -> v | None -> ""))
    f

(* ------------------------------------------------------------------ *)
(* Backend parsing and precedence (satellite).                         *)

let test_backend_of_string () =
  (match Sweep.backend_of_string " CodeGen " with
  | Ok Sweep.Codegen_backend -> ()
  | _ -> Alcotest.fail "\" CodeGen \" should parse to Codegen_backend");
  List.iter
    (fun bad ->
      match Sweep.backend_of_string bad with
      | Ok _ -> Alcotest.failf "%S should be rejected" bad
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S lists exactly plan and codegen" msg)
            true
            (String.ends_with
               ~suffix:{|legal backends are "plan", "codegen"|} msg))
    [ "jit"; "closure" ]

let test_backend_precedence () =
  Fun.protect ~finally:Sweep.clear_default_backend @@ fun () ->
  with_env "YASKSITE_BACKEND" "codegen" @@ fun () ->
  Sweep.clear_default_backend ();
  Alcotest.(check string)
    "env wins over the built-in default" "codegen"
    (Sweep.backend_name (Sweep.default_backend ()));
  Sweep.set_default_backend Sweep.Plan_backend;
  Alcotest.(check string)
    "explicit override wins over the environment" "plan"
    (Sweep.backend_name (Sweep.default_backend ()));
  Sweep.clear_default_backend ();
  with_env "YASKSITE_BACKEND" "" @@ fun () ->
  Alcotest.(check string)
    "plan is the built-in default" "plan"
    (Sweep.backend_name (Sweep.default_backend ()))

let test_env_codegen_selected () =
  Fun.protect ~finally:Sweep.clear_default_backend @@ fun () ->
  with_env "YASKSITE_BACKEND" "codegen" @@ fun () ->
  Sweep.clear_default_backend ();
  Alcotest.(check string)
    "YASKSITE_BACKEND=codegen selects the codegen backend" "codegen"
    (Sweep.backend_name (Sweep.default_backend ()))

(* ------------------------------------------------------------------ *)
(* Source emission.                                                    *)

let test_source_shape () =
  let plan = Lower.lower heat1 in
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 1 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  let v = Codegen.variant_of ~plan ~inputs:[| g |] ~output:o in
  match Codegen.source ~plan v with
  | Error e -> Alcotest.failf "heat1 should be generatable: %s" e
  | Ok src ->
      List.iter
        (fun needle ->
          if not (contains ~needle src) then
            Alcotest.failf "generated source lacks %S:\n%s" needle src)
        [ Printf.sprintf "Callback.register %S kern_row\n"
            (Codegen.callback_name (Codegen.key ~plan v));
          "0x1p-2" (* 0.25, as an exact hex-float literal *) ]

(* The emitted text of every suite kernel, on linear and folded grids at
   three halo widths, pinned by digest: emission changes only with the
   ABI. *)
let test_suite_sources_pinned () =
  let module Suite = Yasksite_stencil.Suite in
  let sources =
    List.concat_map
      (fun spec ->
        let spec = Suite.resolve_defaults spec in
        let plan = Lower.lower spec in
        let r = spec.Spec.rank in
        let radius = Analysis.halo (Analysis.of_spec spec) in
        List.concat_map
          (fun layout ->
            List.map
              (fun extra ->
                let halo = Array.map (fun h -> h + extra) radius in
                let grid () = Grid.create ~halo ~layout ~dims:(Array.make r 8) () in
                let inputs = Array.init spec.Spec.n_fields (fun _ -> grid ()) in
                let v = Codegen.variant_of ~plan ~inputs ~output:(grid ()) in
                match Codegen.source ~plan v with
                | Ok src -> src
                | Error e -> Alcotest.failf "%s: %s" spec.Spec.name e)
              [ 0; 1; 3 ])
          [ Grid.Linear; Grid.Folded (Array.make r 2) ])
      Suite.all
  in
  Alcotest.(check int) "units" 54 (List.length sources);
  Alcotest.(check string) "digest of the emitted suite sources"
    "df9be6df4a48a683fe9326a89d9438cd"
    (Digest.to_hex (Digest.string (String.concat "" sources)))

let test_source_refuses_unresolved () =
  let accesses = [| { Expr.field = 0; offsets = [| 0 |] } |] in
  let v =
    { Codegen.slot_shift = [| 0 |]; slot_unit = [| true |]; out_lp = 0;
      out_unit = true }
  in
  let refused plan =
    match Codegen.source ~plan v with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "a Sym-bearing plan is refused" true
    (refused
       (Plan.v ~name:"sym" ~rank:1 ~n_fields:1 ~accesses
          ~code:[| Plan.Load 0; Plan.Sym "r"; Plan.Mul |] ~depth:2));
  Alcotest.(check bool) "a NaN coefficient is refused" true
    (refused
       (Plan.v ~name:"nan" ~rank:1 ~n_fields:1 ~accesses
          ~code:[| Plan.Push Float.nan; Plan.Load 0; Plan.Mul |] ~depth:2))

(* ------------------------------------------------------------------ *)
(* Three-way bit-identity (tentpole property).                         *)

(* One sweep of a random stencil, same grids and config, on both
   backends and the oracle — all three outputs must be bit-identical,
   and the two backends' stats equal. *)
let sweep_three_way ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank () in
  let spec = if Prng.int rng ~bound:2 = 0 then with_division spec else spec in
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
  let a = make_grid ~layout ~halo ~dims (seed + 1000) in
  let run backend =
    let o = Grid.create ~halo ~layout ~dims () in
    let s = Sweep.run ~backend ~config:cfg spec ~inputs:[| a |] ~output:o in
    (o, s)
  in
  let o_code, s_code = run Sweep.Codegen_backend in
  let o_plan, s_plan = run Sweep.Plan_backend in
  let o_ref = Grid.create ~halo ~layout ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:o_ref;
  Grid.max_abs_diff o_code o_plan = 0.0
  && Grid.max_abs_diff o_code o_ref = 0.0
  && s_code = s_plan

let codegen_three_way_sweep =
  QCheck.Test.make ~name:"codegen bit-reproduces plan and oracle"
    ~count:20 QCheck.small_int (fun seed -> sweep_three_way ~seed)

let wavefront_three_way ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank () in
  let spec = if Prng.int rng ~bound:2 = 0 then with_division spec else spec in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let steps = 1 + Prng.int rng ~bound:4 in
  let wf = 2 + Prng.int rng ~bound:3 in
  let stagger = halo.(0) + 1 + Prng.int rng ~bound:2 in
  let cfg = Config.v ~wavefront:wf ~wavefront_stagger:stagger () in
  let run backend =
    let a = make_grid ~halo ~dims (seed + 1) in
    let b = make_grid ~halo ~dims (seed + 2) in
    let final, _ = Wavefront.steps ~backend ~config:cfg spec ~a ~b ~steps in
    final
  in
  let f_code = run Sweep.Codegen_backend in
  let f_ref =
    Oracle.steps spec ~a:(make_grid ~halo ~dims (seed + 1))
      ~b:(make_grid ~halo ~dims (seed + 2)) ~steps
  in
  Grid.max_abs_diff f_code (run Sweep.Plan_backend) = 0.0
  && Grid.max_abs_diff f_code f_ref = 0.0

let codegen_three_way_wavefront =
  QCheck.Test.make ~name:"wavefront agrees across all three backends"
    ~count:10 QCheck.small_int (fun seed -> wavefront_three_way ~seed)

(* A sanitized, gate-checked sweep must agree bit-for-bit with the plan
   backend and the oracle too (the sanitizer checks each row's points
   before the compiled row kernel runs). *)
let sanitized_three_way ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:2 in
  let spec = Gen.spec rng ~rank () in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let a = make_grid ~halo ~dims (seed + 3) in
  let run backend =
    let o = Grid.create ~halo ~dims () in
    let san = Sanitizer.create () in
    let _ = Sweep.run ~backend ~sanitize:san spec ~inputs:[| a |] ~output:o in
    o
  in
  let o_code = run Sweep.Codegen_backend in
  let o_ref = Grid.create ~halo ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:o_ref;
  Grid.max_abs_diff o_code (run Sweep.Plan_backend) = 0.0
  && Grid.max_abs_diff o_code o_ref = 0.0

let codegen_three_way_sanitized =
  QCheck.Test.make ~name:"sanitized sweep agrees across all three backends"
    ~count:10 QCheck.small_int (fun seed -> sanitized_three_way ~seed)

(* The dynamic sanitizer reaches the same verdict on every backend: an
   aliased in-place sweep traps YS452 on codegen exactly as on the
   interpreters. *)
let test_sanitizer_verdict_parity () =
  let codes =
    List.map
      (fun backend ->
        let g = make_grid ~halo:[| 1 |] ~dims:[| 12 |] 6 in
        let san = Sanitizer.create () in
        try
          ignore
            (Sweep.run ~backend ~check:false ~sanitize:san heat1
               ~inputs:[| g |] ~output:g);
          None
        with Sanitizer.Trap t -> Some (Sanitizer.code_of_kind t.Sanitizer.kind))
      all_backends
  in
  List.iter
    (fun c -> Alcotest.(check (option string)) "same verdict" (Some "YS452") c)
    codes

(* The one in-place pattern YS403 admits: the output grid is also input
   field 0, read only at radius 0. Row evaluation loads a chunk before it
   stores it, and the compiled row loop loads each point before storing
   it; either way a point reads its own cell before writing it and no
   other point reads that cell. Rows of 200 points span four chunks of
   the interpreter. The oracle reads a copy of the original field 0. *)
let in_place_specs =
  [ Spec.v ~name:"in-place-sum" ~rank:2 ~n_fields:2
      Dsl.(
        c 0.5 *: fld [ 0; 0 ]
        +: (c 0.25 *: (fld ~field:1 [ 0; -1 ] +: fld ~field:1 [ 0; 1 ])));
    Spec.v ~name:"in-place-select" ~rank:2 ~n_fields:2
      Dsl.(
        select (fld [ 0; 0 ])
          (fmax (fld [ 0; 0 ]) (fld ~field:1 [ 0; -1 ]))
          (fld [ 0; 0 ] *: fld ~field:1 [ -1; 1 ])
        /: c 3.0) ]

let test_in_place_rows_match_oracle () =
  let dims = [| 3; 200 |] and halo = [| 1; 1 |] in
  List.iter
    (fun spec ->
      List.iter
        (fun backend ->
          List.iter
            (fun traced ->
              let io = make_grid ~halo ~dims 31 and f1 = make_grid ~halo ~dims 32 in
              let expected = Grid.create ~halo ~dims () in
              Oracle.sweep spec ~inputs:[| make_grid ~halo ~dims 31; f1 |]
                ~output:expected;
              let trace =
                if traced then Some (Hierarchy.create Machine.test_chip) else None
              in
              ignore (Sweep.run ~backend ?trace spec ~inputs:[| io; f1 |] ~output:io);
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s on %s%s" spec.Spec.name
                   (Sweep.backend_name backend)
                   (if traced then ", traced" else ""))
                0.0
                (Grid.max_abs_diff io expected))
            [ false; true ])
        all_backends)
    in_place_specs

(* A sanitized row with an out-of-bounds point traps before the row call:
   no point of that row is written, not even the legal ones before it.
   The region [1, 201) is one row block (the block extent is the
   200-point interior) and overhangs the interior by one point, whose
   x+1 read leaves the allocation. *)
let test_sanitized_row_traps_before_writing () =
  List.iter
    (fun backend ->
      let a = make_grid ~halo:[| 1 |] ~dims:[| 200 |] 41 in
      let o = make_grid ~halo:[| 1 |] ~dims:[| 200 |] 42 in
      let before = Grid.create ~halo:[| 1 |] ~dims:[| 200 |] () in
      Grid.copy_interior ~src:o ~dst:before;
      let san = Sanitizer.create () in
      Sanitizer.register san a;
      Sanitizer.register san o;
      let pass = Sanitizer.begin_sweep san ~inputs:[| a |] ~output:o in
      let name = Sweep.backend_name backend in
      (match
         Sweep.run_region ~backend ~check:false
           ~sanitize:(Sanitizer.slice pass 0) heat1 ~inputs:[| a |] ~output:o
           ~lo:[| 1 |] ~hi:[| 201 |]
       with
      | _ -> Alcotest.failf "%s: the overhanging point must trap" name
      | exception Sanitizer.Trap t ->
          Alcotest.(check string)
            (name ^ " traps out of bounds") "YS453"
            (Sanitizer.code_of_kind t.Sanitizer.kind));
      Alcotest.(check (float 0.0))
        (name ^ ": the trapped row is unchanged") 0.0
        (Grid.max_abs_diff o before))
    all_backends

let test_pool_parallel_codegen () =
  let spec = Gen.spec (Prng.create ~seed:42) ~rank:2 () in
  let halo = Analysis.halo (Analysis.of_spec spec) in
  let dims = [| 24; 33 |] in
  let cfg = Config.v ~block:[| 0; 8 |] () in
  let run ?pool backend =
    let a = make_grid ~halo ~dims 99 in
    let o = Grid.create ~halo ~dims () in
    ignore (Sweep.run ?pool ~backend ~config:cfg spec ~inputs:[| a |] ~output:o);
    o
  in
  Pool.with_pool ~domains:3 @@ fun pool ->
  let o_par = run ~pool Sweep.Codegen_backend in
  let o_seq = run Sweep.Plan_backend in
  Alcotest.(check (float 0.0))
    "pool-parallel codegen sweep is bit-identical" 0.0
    (Grid.max_abs_diff o_par o_seq)

(* ------------------------------------------------------------------ *)
(* Store round-trip, corruption, fallback.                             *)

let with_tmp_store f =
  let root =
    Filename.temp_file "yasksite-kern-test" ""
  in
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

let kern_entry_files root =
  let dir = Filename.concat (Filename.concat root "objects") "kern-v1" in
  match Sys.readdir dir with
  | buckets ->
      Array.to_list buckets
      |> List.concat_map (fun b ->
             let bd = Filename.concat dir b in
             Array.to_list (Sys.readdir bd)
             |> List.filter_map (fun n ->
                    if String.length n > 0 && n.[0] = '.' then None
                    else Some (Filename.concat bd n)))
  | exception Sys_error _ -> []

(* Warm runs come from the store without compiling; a corrupted entry
   (flipped bytes on disk → quarantined by the checksum) or a garbage
   payload (valid entry, unloadable bytes) recompiles and repairs. *)
let corrupted_entry_recompiles ~seed =
  with_tmp_store @@ fun root store ->
  if not (Native.available ()) then QCheck.assume_fail ()
  else begin
    let rng = Prng.create ~seed in
    let spec = Gen.spec rng ~rank:1 () in
    assert (sweep_codegen spec ~seed);
    let s1 = Native.stats () in
    (* cold: exactly one compile, nothing from the store *)
    if not (s1.Native.compiles = 1 && s1.Native.store_hits = 0) then false
    else begin
      Native.reset_for_tests ();
      Native.set_store (Some store);
      assert (sweep_codegen spec ~seed);
      let s2 = Native.stats () in
      (* warm: straight from the store, compiler never runs *)
      if not (s2.Native.compiles = 0 && s2.Native.store_hits = 1) then false
      else begin
        let entries = kern_entry_files root in
        if entries = [] then false
        else begin
          (match Prng.int rng ~bound:2 with
          | 0 ->
              (* flip one payload byte on disk: the checksum fails, the
                 entry is quarantined, the get misses *)
              List.iter
                (fun path ->
                  let raw =
                    In_channel.with_open_bin path In_channel.input_all
                  in
                  let i = String.length raw - 1 in
                  let b = Bytes.of_string raw in
                  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                  Out_channel.with_open_bin path (fun oc ->
                      Out_channel.output_bytes oc b))
                entries
          | _ ->
              (* rewrite the entry through the store API with garbage
                 bytes: the entry is healthy, the load fails *)
              List.iter
                (fun path ->
                  let raw =
                    In_channel.with_open_bin path In_channel.input_all
                  in
                  match String.split_on_char '\t' raw with
                  | _magic :: ns :: key :: _ ->
                      Store.put store ~ns ~key "not a cmxs"
                  | _ -> ())
                entries);
          Native.reset_for_tests ();
          Native.set_store (Some store);
          let ok = sweep_codegen spec ~seed in
          let s3 = Native.stats () in
          (* either corruption mode must end in a recompile, and the
             sweep must still be bit-identical via the fresh kernel *)
          ok && s3.Native.compiles = 1 && s3.Native.store_hits = 0
        end
      end
    end
  end

let codegen_corruption_recompiles =
  QCheck.Test.make
    ~name:"corrupted kern-v1 entries recompile instead of loading" ~count:6
    QCheck.small_int (fun seed -> corrupted_entry_recompiles ~seed)

let test_no_toolchain_fallback () =
  Fun.protect ~finally:(fun () -> Native.reset_for_tests ()) @@ fun () ->
  Native.reset_for_tests ();
  with_env "PATH" "/nonexistent-yasksite-bin" @@ fun () ->
  Alcotest.(check bool) "toolchain invisible" false (Native.available ());
  Alcotest.(check bool)
    "codegen sweep falls back to the plan interpreter" true
    (sweep_codegen heat1 ~seed:7);
  let s = Native.stats () in
  Alcotest.(check bool) "fallbacks counted" true (s.Native.fallbacks > 0);
  Alcotest.(check int) "no compile attempted" 0 s.Native.compiles

let test_store_schema_visible () =
  with_tmp_store @@ fun _root store ->
  if Native.available () then begin
    assert (sweep_codegen heat1 ~seed:3);
    let by_ns = Store.usage_by_ns store in
    match
      List.find_opt (fun u -> u.Store.ns = Native.store_ns) by_ns
    with
    | None -> Alcotest.fail "kern-v1 missing from usage_by_ns"
    | Some u ->
        Alcotest.(check bool) "one kern entry" true (u.Store.ns_entries = 1);
        Alcotest.(check bool) "entry has bytes" true (u.Store.ns_bytes > 0);
        (* gc scoped to another schema must not touch kernels *)
        let r = Store.gc ~ns:"ecm-v1" ~max_size_bytes:0 store in
        Alcotest.(check int) "foreign-ns gc removes nothing" 0 r.Store.removed;
        let r = Store.gc ~ns:Native.store_ns ~max_size_bytes:0 store in
        Alcotest.(check int) "scoped gc evicts the kernel" 1 r.Store.removed
  end

let suite =
  [ Alcotest.test_case "backend_of_string three-way" `Quick
      test_backend_of_string;
    Alcotest.test_case "backend precedence chain" `Quick
      test_backend_precedence;
    Alcotest.test_case "YASKSITE_BACKEND=codegen" `Quick
      test_env_codegen_selected;
    Alcotest.test_case "generated source shape" `Quick test_source_shape;
    Alcotest.test_case "emitted suite sources pinned" `Quick
      test_suite_sources_pinned;
    Alcotest.test_case "unsupported plans refused" `Quick
      test_source_refuses_unresolved;
    qt codegen_three_way_sweep;
    qt codegen_three_way_wavefront;
    qt codegen_three_way_sanitized;
    Alcotest.test_case "sanitizer verdict identical on codegen" `Quick
      test_sanitizer_verdict_parity;
    Alcotest.test_case "in-place radius-0 rows match the oracle" `Quick
      test_in_place_rows_match_oracle;
    Alcotest.test_case "sanitized row traps before writing" `Quick
      test_sanitized_row_traps_before_writing;
    Alcotest.test_case "pool-parallel codegen sweep" `Quick
      test_pool_parallel_codegen;
    qt codegen_corruption_recompiles;
    Alcotest.test_case "no-toolchain fallback" `Quick
      test_no_toolchain_fallback;
    Alcotest.test_case "kern-v1 visible to store stats/gc" `Quick
      test_store_schema_visible ]
